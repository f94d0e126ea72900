package mpi_test

import (
	"fmt"
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

// The ULFM recovery loop: a fault schedule kills rank 2 mid-run, the
// survivors' allreduce fails with ErrPeerDown, and they revoke the
// communicator, shrink to the agreed-live membership, and retry the
// reduction there. Survivor ranks 0, 1, and 3 contribute rank+1.
func ExampleComm_Shrink() {
	spec := registry.Spec{Platform: "mem", Ranks: 4, Kills: "2@50us"}
	_, err := registry.Run(spec, func(c *mpi.Comm) error {
		c.Compute(100 * time.Microsecond) // the kill lands in this window
		contrib := []int64{int64(c.Rank()) + 1}
		cur := c
		for {
			sum := make([]int64, 1) // fresh per attempt: a failed one's receives may still target the last
			err := cur.AllreduceInt64(mpi.SumInt64, contrib, sum)
			if err == nil {
				if cur != c && cur.Rank() == 0 {
					fmt.Printf("sum %d over %d survivors\n", sum[0], cur.Size())
				}
				return nil
			}
			switch {
			case c.Dead():
				return nil // the injected death, not an application failure
			case mpi.IsPeerDown(err):
				// First observer: poison the communicator so peers blocked
				// on the dead rank wake with ErrRevoked instead of hanging.
				if rerr := cur.Revoke(); rerr != nil {
					return rerr
				}
			case mpi.IsRevoked(err):
				// A peer revoked first; fall through to the rebuild.
			default:
				return err
			}
			smaller, serr := cur.Shrink()
			if serr != nil {
				return serr
			}
			cur = smaller
		}
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: sum 7 over 3 survivors
}

// Fault-tolerant agreement: Agree ANDs one flag word across the live
// membership, so a rank that failed its phase clears a bit for everyone.
func ExampleComm_Agree() {
	_, err := registry.Run(registry.Spec{Platform: "mem", Ranks: 4}, func(c *mpi.Comm) error {
		flag := uint64(0b11) // bit 0: phase done; bit 1: checkpoint written
		if c.Rank() == 3 {
			flag = 0b01 // rank 3 could not checkpoint
		}
		agreed, err := c.Agree(flag)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Printf("agreed flags %#b\n", agreed)
		}
		return nil
	})
	if err != nil {
		fmt.Println("error:", err)
	}
	// Output: agreed flags 0b1
}
