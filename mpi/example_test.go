package mpi_test

import (
	"fmt"

	"repro/mpi"
	_ "repro/platform/cluster"
	_ "repro/platform/meiko"
	"repro/platform/registry"
)

// A two-rank ping-pong on the modeled Meiko CS/2.
func Example() {
	_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 2}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, []byte("ping")); err != nil {
				return err
			}
			buf := make([]byte, 4)
			if _, err := c.Recv(1, 7, buf); err != nil {
				return err
			}
			fmt.Printf("rank 0 got %q\n", buf)
			return nil
		}
		buf := make([]byte, 4)
		if _, err := c.Recv(0, 7, buf); err != nil {
			return err
		}
		return c.Send(0, 7, []byte("pong"))
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: rank 0 got "pong"
}

// Collectives: an allreduce over the TCP/ATM cluster.
func ExampleComm_Allreduce() {
	_, err := registry.Run(registry.Spec{Platform: "cluster", Transport: "tcp", Network: "atm", Ranks: 4}, func(c *mpi.Comm) error {
		sum := make([]float64, 1)
		if err := c.AllreduceFloat64(mpi.SumFloat64, []float64{float64(c.Rank() + 1)}, sum); err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Printf("sum of 1..4 = %v\n", sum[0])
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: sum of 1..4 = 10
}

// Nonblocking requests with MPI_ANY_SOURCE and probe-sized receives.
func ExampleComm_Probe() {
	_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 3}, func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			msg := fmt.Sprintf("hello from %d", c.Rank())
			return c.Send(0, c.Rank(), []byte(msg))
		}
		for i := 0; i < 2; i++ {
			st, err := c.Probe(mpi.AnySource, mpi.AnyTag)
			if err != nil {
				return err
			}
			buf := make([]byte, st.Count)
			if _, err := c.Recv(st.Source, st.Tag, buf); err != nil {
				return err
			}
			fmt.Printf("%s (%d bytes)\n", buf, st.Count)
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Unordered output:
	// hello from 1 (12 bytes)
	// hello from 2 (12 bytes)
}

// Wildcard receives: AnySource/AnyTag patterns match whichever message
// arrived first, and the returned Status reports the concrete source and
// tag. Per source, messages still match in send order (non-overtaking).
func ExampleComm_Recv_wildcard() {
	_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 3}, func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, 10*c.Rank(), []byte{byte(c.Rank())})
		}
		buf := make([]byte, 1)
		for i := 0; i < 2; i++ {
			st, err := c.Recv(mpi.AnySource, mpi.AnyTag, buf)
			if err != nil {
				return err
			}
			fmt.Printf("from rank %d, tag %d\n", st.Source, st.Tag)
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Unordered output:
	// from rank 1, tag 10
	// from rank 2, tag 20
}

// Forcing collective algorithms: World.Tune pins operations to registered
// algorithms by name (everything else keeps auto-selecting).
func ExampleWorld_Tune() {
	w, err := registry.Build(registry.Spec{Platform: "meiko", Ranks: 4})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	w.Tune = mpi.Tuning{"bcast": "binomial"}
	_, err = mpi.Launch(w, func(c *mpi.Comm) error {
		buf := []byte{0}
		if c.Rank() == 0 {
			buf[0] = 42
		}
		if err := c.Bcast(0, buf); err != nil {
			return err
		}
		if c.Rank() == 3 {
			fmt.Println("rank 3 got", buf[0])
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: rank 3 got 42
}

// One-sided communication: a halo exchange where each rank Puts its
// boundary cell into its right neighbor's window, with fences delimiting
// the access epoch. On the Meiko the Put maps to Elan remote DMA; no
// receive is ever posted.
func ExampleWin() {
	_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 4}, func(c *mpi.Comm) error {
		win, err := c.WinCreate(1) // one halo cell per rank
		if err != nil {
			return err
		}
		right := (c.Rank() + 1) % c.Size()
		if err := win.Put(right, 0, []byte{byte(10 * c.Rank())}); err != nil {
			return err
		}
		if err := win.Fence(); err != nil { // close the epoch: puts visible
			return err
		}
		if c.Rank() == 0 {
			fmt.Println("rank 0's halo cell:", win.Bytes()[0])
		}
		return win.Free()
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: rank 0's halo cell: 30
}
