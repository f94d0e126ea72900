package registry_test

import (
	"bytes"
	"testing"
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

// A collective that fails leaves no receive posted into the buffer it
// handed back. Rank 2 of a 4-rank ring Allgather is killed at 1 µs, and
// every rank computes 5 ms first, so the death is known when the ring
// starts. Rank 1's first exchange sends to rank 2 and receives from rank
// 0: the send fails at once, and the call returns rank 2's death. Rank 1
// then fills its receive buffer with 0xEE and computes 5 ms, during which
// rank 0's block arrives; an exchange that left its receive posted lets
// that block land in the buffer at rank 1's next Iprobe. Rank 3 revokes
// the world once its own exchange with rank 2 fails, which ends rank 0's
// wait for it.
func TestFailedCollectiveWritesNoReturnedBuffer(t *testing.T) {
	for _, name := range []string{"mem", "cluster/tcp", "meiko/lowlatency"} {
		s := registry.SpecFor(name)
		s.Ranks, s.Kills, s.Coll = 4, "2@1us", "allgather=ring"
		const n = 4
		var gathered []byte
		var agErr error
		_, err := registry.Run(s, func(c *mpi.Comm) error {
			me := c.Rank()
			send := make([]byte, n)
			for i := range send {
				send[i] = byte(me*n + i)
			}
			recv := make([]byte, n*c.Size())
			c.Compute(5 * time.Millisecond)
			err := c.Allgather(send, recv)
			switch me {
			case 1:
				agErr = err
				for i := range recv {
					recv[i] = 0xEE
				}
				c.Compute(5 * time.Millisecond)
				c.Iprobe(mpi.AnySource, mpi.AnyTag)
				gathered = recv
			case 3:
				if err != nil {
					c.Revoke()
				}
			}
			return nil
		})
		switch {
		case err != nil:
			t.Errorf("%s: %v", name, err)
		case !mpi.IsPeerDown(agErr):
			t.Errorf("%s: rank 1's Allgather returned %v, want rank 2's ErrPeerDown", name, agErr)
		case !bytes.Equal(gathered, bytes.Repeat([]byte{0xEE}, len(gathered))):
			t.Errorf("%s: rank 1's returned receive buffer reads % x after the call, want all ee", name, gathered)
		}
	}
}
