package meiko

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/mpi"
	"repro/platform/registry"
)

// A sender killed while its rendezvous messages are in flight takes the
// failed-send branch of the CTS: the send no longer resolves, the record
// goes back to the sender's list on the sender's lane, and no DMA starts.
// Rank 0 streams 1 KiB messages to three receivers and dies mid-stream; on
// one lane and on two (threaded, so -race sees the record and its bounce
// buffer cross lanes) the survivors must end with typed errors, the dead
// rank must draw no bounce buffer after its death (every DMA draws one, on
// the sender's lane, as the CTS starts it), and every record at rest must
// be zeroed, in one place only, on a list within its bound.
func TestRendezvousSenderKilledMidFlight(t *testing.T) {
	const ranks, msgs, size, victim = 4, 16, 1024, 0
	const killAt = 300 * time.Microsecond
	for _, lanes := range []int{0, 2} {
		t.Run(fmt.Sprintf("lanes%d", lanes), func(t *testing.T) {
			w, err := registry.Build(registry.Spec{Platform: "meiko", Impl: "lowlatency", Ranks: ranks,
				Lanes: lanes, Parallel: lanes > 1, Kills: fmt.Sprintf("%d@%dus", victim, killAt/time.Microsecond)})
			if err != nil {
				t.Fatal(err)
			}
			trs := make([]*lowlatTransport, ranks)
			draws := func() int64 {
				c := trs[victim].eng.Acct().View().Count
				return c[core.PoolHit] + c[core.PoolMiss]
			}
			// Scheduled after the kill, so it runs right behind it at the same
			// instant, on the victim's lane.
			var drawsAtDeath int64
			w.Sched(victim).After(killAt, func() { drawsAtDeath = draws() })

			rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
				trs[c.Rank()] = c.Endpoint().(*LowLatEndpoint).tr
				if c.Rank() == victim {
					payload := make([]byte, size)
					var reqs []*mpi.Request
					for i := 0; i < msgs; i++ {
						for dst := 1; dst < ranks; dst++ {
							r, err := c.Isend(dst, i, payload)
							if err != nil {
								return err
							}
							reqs = append(reqs, r)
						}
					}
					_, err := mpi.WaitAll(reqs...)
					return err
				}
				buf := make([]byte, size)
				for i := 0; i < msgs; i++ {
					if _, err := c.Recv(victim, i, buf); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil && !mpi.IsPeerDown(err) {
				t.Fatalf("run: %v", err)
			}
			for r, e := range rep.Errs {
				if !mpi.IsPeerDown(e) {
					t.Errorf("rank %d ended with %v, want a typed peer-down error", r, e)
				}
			}
			for _, e := range rep.Protocol { // the victim records its own death
				if !mpi.IsPeerDown(e) {
					t.Errorf("protocol error %v", e)
				}
			}
			if n := trs[victim].rndvIdle.Len(); n == 0 {
				t.Error("no CTS found its send failed: the kill missed every rendezvous in flight")
			}
			if after := draws(); after != drawsAtDeath {
				t.Errorf("the dead sender drew %d bounce buffers after its death: a DMA started for a failed send", after-drawsAtDeath)
			}
			ins := make([]*core.Inbox, ranks)
			for rank, tr := range trs {
				ins[rank] = &tr.inbox
			}
			if n, err := core.AuditInboxes(ins...); err != nil || n == 0 {
				t.Errorf("inbox audit: %d records at rest, %v", n, err)
			}
			seen := map[*rndv]int{}
			for rank, tr := range trs {
				if n := tr.rndvIdle.Len(); n > sim.DefaultFreeMax {
					t.Errorf("rank %d: %d idle rendezvous records, bound %d", rank, n, sim.DefaultFreeMax)
				}
				for x := range tr.rndvIdle.All() {
					if prev, dup := seen[x]; dup {
						t.Errorf("record %p rests on rank %d's list and on rank %d's", x, prev, rank)
					}
					seen[x] = rank
					if x.recv != nil || x.send != nil || x.name != 0 || x.sreq != nil ||
						x.env != (core.Envelope{}) || x.n != 0 || x.data != nil {
						t.Errorf("rank %d: idle record %p was not zeroed: %+v", rank, x, *x)
					}
				}
			}
		})
	}
}
