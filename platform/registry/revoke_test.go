package registry_test

import (
	"testing"
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

// A killed rank's body runs on past its death (DESIGN §11), but a Revoke
// it calls there sends nothing: it returns the rank's own death error, no
// survivor books ft.revoke, and the survivors' later exchange on the same
// communicator is not revoked. Rank 1 is killed at 50 µs and revokes the
// world at 100 µs; ranks 0 and 2 compute to 2 ms, then Sendrecv. The
// engine must refuse: mem's fabric carries whatever a dead rank ships
// (cluster/udp's stopped RUDP swallows it).
func TestKilledRankRevokesNothing(t *testing.T) {
	for _, name := range []string{"mem", "cluster/udp"} {
		s := registry.SpecFor(name)
		s.Ranks, s.Kills = 3, "1@50us"
		var revoked error
		rep, err := registry.Run(s, func(c *mpi.Comm) error {
			if c.Rank() == 1 {
				c.Compute(100 * time.Microsecond)
				revoked = c.Revoke()
				return nil
			}
			c.Compute(2 * time.Millisecond)
			peer := 2 - c.Rank()
			_, err := c.Sendrecv(peer, 0, make([]byte, 8), peer, 0, make([]byte, 8))
			return err
		})
		if err != nil {
			t.Errorf("%s: a survivor failed: %v", name, err)
		}
		if !mpi.IsPeerDown(revoked) {
			t.Errorf("%s: the killed rank's Revoke returned %v, want its death error", name, revoked)
		}
		for _, r := range []int{0, 2} {
			if n := rep.RankAccts[r].View().Count["ft.revoke"]; n != 0 {
				t.Errorf("%s: survivor %d booked %d revokes", name, r, n)
			}
		}
	}
}
