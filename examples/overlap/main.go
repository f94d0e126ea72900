// Overlap demonstrates the communication patterns the paper's design
// choices serve: nonblocking sends progressing in the background on the
// Meiko's Elan, probe-driven receives with MPI_ANY_SOURCE, and the four
// send modes.
//
//	go run ./examples/overlap
package main

import (
	"fmt"
	"log"
	"time"

	"repro/mpi"
	_ "repro/platform/meiko"
	"repro/platform/registry"
)

func main() {
	_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 3}, func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			// Nonblocking send overlapped with computation: the Elan moves
			// 200 KB while the SPARC computes.
			data := make([]byte, 200_000)
			t0 := c.Wtime()
			req, err := c.Isend(1, 0, data)
			if err != nil {
				return err
			}
			c.Compute(5 * time.Millisecond)
			if _, err := req.Wait(); err != nil {
				return err
			}
			fmt.Printf("rank 0: 200KB send + 5ms compute finished in %v (overlapped)\n", c.Wtime()-t0)

			// The four send modes.
			c.BufferAttach(4096)
			if err := c.Bsend(2, 1, []byte("buffered")); err != nil {
				return err
			}
			if err := c.Rsend(2, 3, []byte("ready")); err != nil { // receiver posted early
				return err
			}
			if err := c.Ssend(2, 2, []byte("synchronous")); err != nil {
				return err
			}
			return c.Send(2, 4, []byte("standard"))
		case 1:
			_, err := c.Recv(0, 0, make([]byte, 200_000))
			return err
		default: // rank 2
			// Post the ready-mode receive before rank 0 reaches Rsend.
			ready, err := c.Irecv(0, 3, make([]byte, 16))
			if err != nil {
				return err
			}
			// Drain the rest with Probe + ANY_SOURCE.
			for _, want := range []int{1, 2, 4} {
				st, err := c.Probe(mpi.AnySource, want)
				if err != nil {
					return err
				}
				buf := make([]byte, st.Count)
				if _, err := c.Recv(st.Source, st.Tag, buf); err != nil {
					return err
				}
				fmt.Printf("rank 2: probed tag %d -> %q\n", st.Tag, buf)
			}
			st, err := ready.Wait()
			if err != nil {
				return err
			}
			fmt.Printf("rank 2: ready-mode message arrived (%d bytes)\n", st.Count)
			return nil
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}
