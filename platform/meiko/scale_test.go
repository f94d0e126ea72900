package meiko

import (
	"fmt"
	"testing"
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

// The paper's machine is a 64-node CS/2: the full configuration must run
// collectives and bulk point-to-point traffic correctly on both
// implementations.
func TestFullMachine64Nodes(t *testing.T) {
	for _, impl := range []string{"lowlatency", "mpich"} {
		impl := impl
		t.Run(impl, func(t *testing.T) {
			rep, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 64, Impl: impl}, func(c *mpi.Comm) error {
				// Broadcast + reduction over the whole machine.
				buf := make([]byte, 2048)
				if c.Rank() == 0 {
					for i := range buf {
						buf[i] = byte(i * 3)
					}
				}
				if err := c.Bcast(0, buf); err != nil {
					return err
				}
				for i := 0; i < len(buf); i += 101 {
					if buf[i] != byte(i*3) {
						return fmt.Errorf("rank %d: bcast corrupt at %d", c.Rank(), i)
					}
				}
				sum := make([]float64, 1)
				if err := c.AllreduceFloat64(mpi.SumFloat64, []float64{1}, sum); err != nil {
					return err
				}
				if sum[0] != 64 {
					return fmt.Errorf("allreduce = %v", sum[0])
				}
				// Neighbor exchange around the full ring.
				right := (c.Rank() + 1) % 64
				left := (c.Rank() + 63) % 64
				out := []byte{byte(c.Rank())}
				in := make([]byte, 1)
				if _, err := c.Sendrecv(right, 1, out, left, 1, in); err != nil {
					return err
				}
				if int(in[0]) != left {
					return fmt.Errorf("rank %d: ring got %d", c.Rank(), in[0])
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.MaxRankElapsed <= 0 || rep.MaxRankElapsed > time.Second {
				t.Fatalf("implausible elapsed %v", rep.MaxRankElapsed)
			}
		})
	}
}

// 64 nodes through the fat-tree congestion model.
func TestFullMachineFatTree(t *testing.T) {
	_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 64, Impl: "lowlatency", FatTree: true}, func(c *mpi.Comm) error {
		// All-to-all across the tree: every pair exchanges one byte.
		send := make([]byte, 64)
		for i := range send {
			send[i] = byte(c.Rank())
		}
		recv := make([]byte, 64)
		if err := c.Alltoall(send, recv); err != nil {
			return err
		}
		for i, v := range recv {
			if int(v) != i {
				return fmt.Errorf("rank %d: alltoall[%d] = %d", c.Rank(), i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
