package meiko

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// The machine on shard lanes is the same cost model under a different
// driver: raw media operations must complete at exactly the
// single-scheduler times.
func TestShardedMachineMatchesSingleScheduler(t *testing.T) {
	c := DefaultCosts()
	type result struct{ txn, dmaLocal, dmaRemote, bcast1, bcast2 sim.Time }
	run := func(m *Machine, drive func() (sim.Time, error)) result {
		var r result
		src := m.Nodes[0]
		src.Txn(1, 64, false, func() { r.txn = m.Nodes[1].S.Now() })
		src.DMA(2, 4096,
			func() { r.dmaLocal = src.S.Now() },
			func() { r.dmaRemote = m.Nodes[2].S.Now() })
		src.Broadcast(128, nil, func(dst *Node) {
			if dst.ID == 1 {
				r.bcast1 = dst.S.Now()
			}
			if dst.ID == 2 {
				r.bcast2 = dst.S.Now()
			}
		})
		if _, err := drive(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	s := sim.NewScheduler(1)
	want := run(NewMachine(s, 3, c), s.Run)
	sh := sim.NewShard(1, 3, sim.Duration(c.WireLatency))
	got := run(NewMachine(sh.Lane(0), 3, c), sh.Run)
	if got != want {
		t.Fatalf("sharded machine times %+v != single-scheduler times %+v", got, want)
	}
	if want.txn == 0 || want.dmaRemote == 0 || want.bcast2 == 0 {
		t.Fatalf("deliveries did not run: %+v", want)
	}
}

// Contention on a destination Elan from two source nodes on different
// lanes must serialize exactly as on one scheduler.
func TestShardedMachineElanContention(t *testing.T) {
	c := DefaultCosts()
	run := func(m *Machine, drive func() (sim.Time, error)) []sim.Time {
		var ends []sim.Time
		m.Nodes[0].Txn(2, 256, false, func() { ends = append(ends, m.Nodes[2].S.Now()) })
		m.Nodes[1].Txn(2, 256, false, func() { ends = append(ends, m.Nodes[2].S.Now()) })
		if _, err := drive(); err != nil {
			t.Fatal(err)
		}
		return ends
	}
	s := sim.NewScheduler(1)
	want := run(NewMachine(s, 3, c), s.Run)
	sh := sim.NewShard(1, 3, sim.Duration(c.WireLatency))
	got := run(NewMachine(sh.Lane(0), 3, c), sh.Run)
	if len(got) != len(want) {
		t.Fatalf("deliveries: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d at %v sharded, %v single", i, got[i], want[i])
		}
	}
}

func TestShardedMachineRejectsShortWire(t *testing.T) {
	c := DefaultCosts()
	sh := sim.NewShard(1, 2, sim.Duration(c.WireLatency)+time.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wire latency below lookahead")
		}
	}()
	NewMachine(sh.Lane(0), 2, c)
}
