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
				// All-to-all: every pair exchanges one byte.
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

// The CS/2 joins its 64 nodes by a fat tree, which the model reduces to the
// paper's flat wire: a round trip to the far side of the machine costs the
// same as one to the next node. Each pair's fastest of eight rounds is
// compared, so the barrier's tail and the slot returns do not count.
func TestFullMachineFatTree(t *testing.T) {
	for _, impl := range []string{"lowlatency", "mpich"} {
		impl := impl
		t.Run(impl, func(t *testing.T) {
			var rtt [2]time.Duration
			_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 64, Impl: impl}, func(c *mpi.Comm) error {
				buf := make([]byte, 1)
				for i, peer := range []int{1, 63} {
					if err := c.Barrier(); err != nil {
						return err
					}
					for k := 0; k < 8; k++ {
						start := c.Wtime()
						switch c.Rank() {
						case 0:
							if err := c.Send(peer, 0, buf); err != nil {
								return err
							}
							if _, err := c.Recv(peer, 0, buf); err != nil {
								return err
							}
							if d := c.Wtime() - start; rtt[i] == 0 || d < rtt[i] {
								rtt[i] = d
							}
						case peer:
							if _, err := c.Recv(0, 0, buf); err != nil {
								return err
							}
							if err := c.Send(0, 0, buf); err != nil {
								return err
							}
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if rtt[0] <= 0 || rtt[0] != rtt[1] {
				t.Fatalf("round trip to rank 1 = %v, to rank 63 = %v; want equal", rtt[0], rtt[1])
			}
		})
	}
}
