package registry_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/mpi"
	"repro/platform/registry"
)

// inboxChecker is a rank's transport with the progress rule's invariant
// asserted at every PollStep that surfaces nothing, which is when
// Engine.Progress returns: on a wire that surfaces packets through its inbox
// alone, a second PollStep then surfaces nothing and charges nothing.
type inboxChecker struct {
	core.Transport
	t     *testing.T
	name  string
	rank  int
	s     *sim.Scheduler
	polls *int
}

func (ic inboxChecker) PollStep() (sim.Cat, sim.Duration, *core.Packet, *sim.Cond) {
	c, d, pkt, w := ic.Transport.PollStep()
	if d > 0 || w != nil || pkt != nil {
		return c, d, pkt, w
	}
	*ic.polls++
	if _, d, again, _ := ic.Transport.PollStep(); d > 0 || again != nil {
		ic.t.Errorf("%s: rank %d at %v: the poll found nothing with a packet in the inbox", ic.name, ic.rank, ic.s.Now())
	}
	return 0, 0, nil, nil
}

// costedChecker is an inboxChecker on a wire that reports its poll cost
// (core.MemTransport), which it forwards: with it the engine reads the same
// cost table, so it keeps the wire's own wait mode.
type costedChecker struct{ inboxChecker }

func (cc costedChecker) PollCost() sim.Duration {
	return cc.Transport.(interface{ PollCost() sim.Duration }).PollCost()
}

// The inbox wires keep the rule too: mem under a small credit reservation,
// cluster/shm, and meiko/lowlatency with its single envelope slot per pair.
// Every rank fires eager and rendezvous messages at rank 0, which finds
// them with Probe; then a broadcast (the hardware one on the Meiko) and a
// barrier. The checked run must equal the run without the checker to the
// dispatch, so the checker runs each wire's own wait mode, the kernel's
// receive chain included.
func TestProgressLeavesInboxEmpty(t *testing.T) {
	for _, spec := range []registry.Spec{
		{Platform: "mem", Credit: 1 << 10, Eager: 1 << 10},
		{Platform: "cluster", Transport: "shm"},
		{Platform: "meiko", Impl: "lowlatency"},
	} {
		spec.Ranks = 6
		name := spec.Key()
		polls := 0
		run := func(checked bool) *mpi.Report {
			rep, err := registry.Run(spec, func(c *mpi.Comm) error {
				if checked {
					eng := c.Endpoint().(interface {
						Transport() core.Transport
						SetTransport(core.Transport)
						Scheduler() *sim.Scheduler
					})
					tr := eng.Transport()
					var ic core.Transport = inboxChecker{tr, t, name, c.Rank(), eng.Scheduler(), &polls}
					if _, ok := tr.(interface{ PollCost() sim.Duration }); ok {
						ic = costedChecker{ic.(inboxChecker)}
					}
					eng.SetTransport(ic)
				}
				return probeStorm(c)
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return rep
		}
		rep, plain := run(true), run(false)
		if rep.Dispatches != plain.Dispatches || rep.Events != plain.Events {
			t.Errorf("%s: %d dispatches and %d events under the checker, %d and %d without: the checker changed the engine's wait mode",
				name, rep.Dispatches, rep.Events, plain.Dispatches, plain.Events)
		}
		if polls < 100 {
			t.Errorf("%s: only %d idle polls checked", name, polls)
		}
		if name == "mem" && rep.Acct.Count["flow-granted"] == 0 {
			t.Errorf("%s: no send waited on credit", name)
		}
	}
}

// probeStorm has every rank but 0 send twelve messages of mixed sizes,
// eager and rendezvous, to rank 0, which finds each with Probe before it
// receives it; then a rendezvous message each into receives rank 0 posted
// before a barrier (on mem the kernel turns each RTS into a CTS at rank
// 0's wake, so the wait mode shows in the dispatches); then a broadcast and
// a barrier.
func probeStorm(c *mpi.Comm) error {
	sizes := []int{1, 1 << 10, 512, 8 << 10}
	if c.Rank() != 0 {
		for i := 0; i < 12; i++ {
			if err := c.Send(0, i, make([]byte, sizes[(i+c.Rank())%len(sizes)])); err != nil {
				return err
			}
		}
	} else {
		buf := make([]byte, 8<<10)
		for i := 0; i < 12*(c.Size()-1); i++ {
			st, err := c.Probe(mpi.AnySource, mpi.AnyTag)
			if err != nil {
				return err
			}
			if _, err := c.Recv(st.Source, st.Tag, buf); err != nil {
				return err
			}
		}
	}
	var posted []*mpi.Request
	for src := 1; c.Rank() == 0 && src < c.Size(); src++ {
		r, err := c.Irecv(src, 99, make([]byte, 8<<10))
		if err != nil {
			return err
		}
		posted = append(posted, r)
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	if c.Rank() != 0 {
		if err := c.Send(0, 99, make([]byte, 8<<10)); err != nil {
			return err
		}
	}
	for _, r := range posted {
		if _, err := r.Wait(); err != nil {
			return err
		}
	}
	if err := c.Bcast(0, make([]byte, 256)); err != nil {
		return err
	}
	return c.Barrier()
}
