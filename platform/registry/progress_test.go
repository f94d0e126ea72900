package registry_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/mpi"
	"repro/platform/registry"
)

// inboxChecker is a rank's transport with the progress rule's invariant
// asserted whenever Poll reports nothing, which is when Engine.Progress
// returns: on a wire that surfaces packets through its inbox alone, a second
// Poll then finds the inbox empty too.
type inboxChecker struct {
	core.Transport
	t     *testing.T
	name  string
	rank  int
	polls *int
}

func (ic inboxChecker) Poll(p *sim.Proc) *core.Packet {
	pkt := ic.Transport.Poll(p)
	if pkt != nil {
		return pkt
	}
	*ic.polls++
	if again := ic.Transport.Poll(p); again != nil {
		ic.t.Errorf("%s: rank %d at %v: Poll found nothing with a %v packet in the inbox", ic.name, ic.rank, p.Now(), again.Kind)
	}
	return nil
}

// The inbox wires keep the rule too: mem under a small credit reservation,
// cluster/shm, and meiko/lowlatency with its single envelope slot per pair.
// Every rank fires eager and rendezvous messages at rank 0, which finds
// them with Probe; then a broadcast (the hardware one on the Meiko) and a
// barrier.
func TestProgressLeavesInboxEmpty(t *testing.T) {
	for _, spec := range []registry.Spec{
		{Platform: "mem", Credit: 1 << 10, Eager: 1 << 10},
		{Platform: "cluster", Transport: "shm"},
		{Platform: "meiko", Impl: "lowlatency"},
	} {
		spec.Ranks = 6
		name := spec.Key()
		polls := 0
		rep, err := registry.Run(spec, func(c *mpi.Comm) error {
			eng := c.Endpoint().(interface {
				Transport() core.Transport
				SetTransport(core.Transport)
			})
			eng.SetTransport(inboxChecker{eng.Transport(), t, name, c.Rank(), &polls})
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
			if err := c.Bcast(0, make([]byte, 256)); err != nil {
				return err
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if polls < 100 {
			t.Errorf("%s: only %d idle polls checked", name, polls)
		}
		if name == "mem" && rep.Acct.Count["flow-granted"] == 0 {
			t.Errorf("%s: no send waited on credit", name)
		}
	}
}
