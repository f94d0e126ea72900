// Quickstart: a four-rank MPI program on both modeled platforms.
//
// Rank 0 sends each rank a greeting, everyone answers with its rank
// squared, and a broadcast plus an allreduce close the round — exercising
// point-to-point, wildcards, and collectives through the public API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/mpi"
	_ "repro/platform/cluster"
	_ "repro/platform/meiko"
	"repro/platform/registry"
)

func body(c *mpi.Comm) error {
	rank, size := c.Rank(), c.Size()
	if rank == 0 {
		for r := 1; r < size; r++ {
			if err := c.Send(r, 1, []byte(fmt.Sprintf("hello rank %d", r))); err != nil {
				return err
			}
		}
		total := 0
		for r := 1; r < size; r++ {
			buf := make([]byte, 8)
			st, err := c.Recv(mpi.AnySource, 2, buf)
			if err != nil {
				return err
			}
			total += int(buf[0])
			_ = st
		}
		fmt.Printf("  rank 0 collected sum of squares: %d\n", total)
	} else {
		buf := make([]byte, 64)
		st, err := c.Recv(0, 1, buf)
		if err != nil {
			return err
		}
		fmt.Printf("  rank %d got %q at t=%v\n", rank, buf[:st.Count], c.Wtime())
		if err := c.Send(0, 2, []byte{byte(rank * rank)}); err != nil {
			return err
		}
	}

	// A broadcast from rank 0 (hardware broadcast on the Meiko).
	pi := make([]byte, 8)
	if rank == 0 {
		pi = mpi.Float64Bytes([]float64{3.14159})
	}
	if err := c.Bcast(0, pi); err != nil {
		return err
	}

	// And an allreduce.
	sum, err := c.AllreduceFloat64(mpi.SumFloat64, []float64{float64(rank)})
	if err != nil {
		return err
	}
	if rank == 0 {
		fmt.Printf("  allreduce sum of ranks: %v (pi=%v)\n", sum[0], mpi.BytesFloat64(pi)[0])
	}
	return nil
}

func main() {
	fmt.Println("Meiko CS/2 (low-latency MPI, hardware broadcast):")
	rep, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 4}, body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  job finished at virtual t=%v\n\n", rep.MaxRankElapsed)

	fmt.Println("ATM cluster (MPI over TCP):")
	rep, err = registry.Run(registry.Spec{Platform: "cluster", Transport: "tcp", Network: "atm", Ranks: 4}, body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  job finished at virtual t=%v\n", rep.MaxRankElapsed)
}
