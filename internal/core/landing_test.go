package core

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// A 1 024-rank world moving only eager traffic, allreduce_shard's shape,
// holds no rendezvous table: the engine builds its landing table on the
// first rendezvous payload, never at NewEngine. A size-long table on every
// engine would be 8 MiB of live heap in that world.
func TestEagerWorldHoldsNoRendezvousTables(t *testing.T) {
	const n = 1024
	w := newWorld(n, time.Microsecond, 180, 0)
	bodies := make([]func(p *sim.Proc, e *Engine), n)
	for i := range bodies {
		bodies[i] = func(p *sim.Proc, e *Engine) {
			req, err := e.Isend(p, (i+1)%n, 0, 0, ModeStandard, payload(64))
			if err != nil {
				t.Errorf("Isend: %v", err)
				return
			}
			mustRecv(t, p, e, (i+n-1)%n, 0, make([]byte, 64))
			if _, err := e.Wait(p, req); err != nil {
				t.Errorf("Wait(send): %v", err)
			}
		}
	}
	w.run(t, bodies...)
	for _, e := range w.engs {
		if e.lands != nil {
			t.Fatalf("rank %d holds a landing table of %d after eager traffic only", e.rank, len(e.lands))
		}
	}
}
