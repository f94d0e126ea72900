package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/mpi"
	"repro/platform/registry"
)

// pollChecker is a rank's transport with two invariants asserted after
// every poll step that surfaces. A peer's ready bit is set exactly when its
// connection has buffered bytes. And a PollStep that surfaces nothing,
// which is when Engine.Progress returns, leaves the wire drained: the inbox
// is empty, no TCP connection is readable, and the datagram link has
// nothing delivered or queued, so a caller that parks then can miss no
// arrival.
type pollChecker struct {
	*transport
	t     *testing.T
	cell  string
	polls *int
}

func (dc pollChecker) PollStep() (sim.Cat, sim.Duration, *core.Packet, *sim.Cond) {
	c, d, pkt, w := dc.transport.PollStep()
	if d > 0 || w != nil {
		return c, d, pkt, w
	}
	*dc.polls++
	now := dc.eng.Scheduler().Now()
	for j, c := range dc.conns {
		if has, readable := dc.ready.has(j), c != nil && c.Readable(); has != readable {
			dc.t.Errorf("%s: rank %d at %v: peer %d ready bit %v, Readable %v", dc.cell, dc.rank, now, j, has, readable)
		}
	}
	if pkt != nil {
		return 0, 0, pkt, nil
	}
	if n := dc.inbox.Len(); n > 0 {
		dc.t.Errorf("%s: rank %d at %v: the poll found nothing with %d packets in the inbox", dc.cell, dc.rank, now, n)
	}
	for j, c := range dc.conns {
		if c != nil && c.Readable() {
			dc.t.Errorf("%s: rank %d at %v: the poll found nothing with the connection from %d readable", dc.cell, dc.rank, now, j)
		}
	}
	readable := false
	switch l := dc.dgram.(type) {
	case *atm.RUDP:
		readable = l.Readable()
	case unetLink:
		readable = l.Readable()
	}
	if readable {
		dc.t.Errorf("%s: rank %d at %v: the poll found nothing with a datagram delivered or queued", dc.cell, dc.rank, now)
	}
	return 0, 0, nil, nil
}

// storm has every rank send eight messages of mixed sizes, eager and
// rendezvous, to every other rank per round, receives pre-posted, for three
// rounds, then gathers everything at rank 0 and ends in a barrier.
func storm(c *mpi.Comm) error {
	sizes := []int{1, 1024, 512, 1024, 8 << 10}
	n, me := c.Size(), c.Rank()
	for round := 0; round < 3; round++ {
		var reqs []*mpi.Request
		for k := 1; k < n; k++ {
			src, dst := (me-k+n)%n, (me+k)%n
			for i := 0; i < 8; i++ {
				r, err := c.Irecv(src, i, make([]byte, 8<<10))
				if err != nil {
					return err
				}
				s, err := c.Isend(dst, i, make([]byte, sizes[(round+k+i)%len(sizes)]))
				if err != nil {
					return err
				}
				reqs = append(reqs, r, s)
			}
		}
		for _, r := range reqs {
			if _, err := r.Wait(); err != nil {
				return err
			}
		}
	}
	if me != 0 {
		if err := c.Send(0, 99, make([]byte, 2<<10)); err != nil {
			return err
		}
	} else {
		buf := make([]byte, 2<<10)
		for i := 1; i < n; i++ {
			if _, err := c.Recv(mpi.AnySource, 99, buf); err != nil {
				return err
			}
		}
	}
	return c.Barrier()
}

// Progress returns only when the wire is drained as of that instant, on
// every socket wire. A small reservation (2 KiB against 1 KiB eager
// messages) keeps sends queued on flow control, so polls ship freed sends
// after parsing the credit that freed them, and more arrives while they
// ship; udp runs loss-free and under loss, reordering jitter and
// duplicates.
func TestProgressLeavesWireDrained(t *testing.T) {
	cells := []struct {
		kind string
		spec registry.Spec
	}{
		{"tcp", registry.Spec{}},
		{"udp", registry.Spec{}},
		{"udp", registry.Spec{LossRate: 0.05, Jitter: 200 * time.Microsecond, Duplicate: 0.05, Seed: 3}},
		{"unet", registry.Spec{}},
	}
	for _, tc := range cells {
		tc.spec.Ranks, tc.spec.Credit, tc.spec.Eager = 6, 2<<10, 1<<10
		cell := fmt.Sprintf("%s loss %v", tc.kind, tc.spec.LossRate)
		w, trs, err := build(tc.spec, tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		polls := 0
		for _, tr := range trs {
			tr.eng.SetTransport(pollChecker{tr, t, cell, &polls})
		}
		rep, err := mpi.Launch(w, storm)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		if got := rep.Acct.Count["flow-granted"]; got == 0 {
			t.Errorf("%s: no send waited on credit, so no poll shipped after parsing", cell)
		}
		if polls < 100 {
			t.Errorf("%s: only %d polls checked", cell, polls)
		}
	}
}
