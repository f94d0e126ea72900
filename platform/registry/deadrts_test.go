package registry_test

import (
	"testing"
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

// A receive that matches the rendezvous announcement of a rank already
// declared dead completes with that rank's death and sends no CTS. Rank 1
// sends 256 KiB and is killed at 20 ms, its RTS unexpected at rank 0; rank 0
// computes past the detection, acknowledges the failure and receives, from
// any source or from rank 1. A CTS sent into the dead rank's fence would
// park rank 0 for good, on every backend that runs the poll-model engine.
func TestDeadRankRTSFailsItsReceive(t *testing.T) {
	for _, name := range []string{"mem", "meiko/lowlatency", "cluster/shm", "cluster/tcp", "cluster/udp", "cluster/unet"} {
		for _, src := range []int{mpi.AnySource, 1} {
			s := registry.SpecFor(name)
			s.Ranks, s.Kills = 3, "1@20ms"
			w, err := registry.Build(s)
			if err != nil {
				t.Fatal(err)
			}
			var got error
			rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
				switch c.Rank() {
				case 0:
					c.Compute(200 * time.Millisecond)
					c.FailureAck()
					_, got = c.Recv(src, 0, make([]byte, 256<<10))
				case 1:
					return c.Send(0, 0, make([]byte, 256<<10))
				}
				return nil
			})
			// The run fails with rank 1's death and nothing else: rank 0
			// parked for good is the kernel's deadlock error instead.
			if err != rep.FirstErr() || rep.Errs[0] != nil || rep.Errs[2] != nil {
				t.Errorf("%s, source %d: %v", name, src, err)
			} else if !mpi.IsPeerDown(got) {
				t.Errorf("%s, source %d: the receive returned %v, want the dead rank's ErrPeerDown", name, src, got)
			}
		}
	}
}
