package meiko

import (
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/sim"
)

// txnProgram issues n transfers from a proc on node 0's scheduler, 2 µs
// apart so a handful overlap on the ports and Elans: transaction i goes
// from node i%3 to node (i+1)%3 carrying i%40 bytes, every fourth one
// Elan-issued, every tenth a DMA of 8·(i%40) bytes instead. note sees each
// completion (kind 0: transaction delivered; 1, 2: DMA local, remote) in
// the order completions happen; the drain time is returned.
func txnProgram(t *testing.T, n int, note func(i, kind int, s *sim.Scheduler)) sim.Time {
	t.Helper()
	s, m := newMachine(3)
	s.Spawn("issuer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			i := i
			src, dst, nb := m.Nodes[i%3], (i+1)%3, i%40
			if i%10 == 9 {
				src.DMA(dst, 8*nb, func() { note(i, 1, s) }, func() { note(i, 2, s) })
			} else {
				src.Txn(dst, nb, i%4 == 0, func() { note(i, 0, s) })
			}
			p.Advance(2 * time.Microsecond)
		}
	})
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// The pooled transfer record must replay the closure chain it replaced:
// same completions, in the same order, at the same virtual times. The
// golden hash was recorded from the three-closure Txn/DMA. A transaction
// books its injection port at issue and routes its landing from there,
// one event fewer than a DMA, whose sender waits for the last byte to
// leave: 3 451 events by the last completion (4 351 with a departure
// event for each of the 900 transactions).
func TestTxnChainGolden(t *testing.T) {
	h := fnv.New64a()
	var b [24]byte
	put := func(off int, v uint64) {
		for k := 0; k < 8; k++ {
			b[off+k] = byte(v >> (8 * k))
		}
	}
	var first []sim.Time
	var events uint64
	count := 0
	end := txnProgram(t, 1000, func(i, kind int, s *sim.Scheduler) {
		put(0, uint64(i))
		put(8, uint64(kind))
		put(16, uint64(s.Now()))
		h.Write(b[:])
		if count < 4 {
			first = append(first, s.Now())
		}
		count++
		events = s.Events()
	})
	const (
		wantCount  = 1100 // 900 transactions + 100 DMAs × (local, remote)
		wantEnd    = 2019800
		wantSum    = 0xcfcc6b1660ccca9a
		wantEvents = 3451
	)
	wantFirst := []sim.Time{9040, 11000, 11080, 17200}
	if count != wantCount || end != wantEnd || h.Sum64() != wantSum {
		t.Fatalf("count %d end %d sum %#x, want %d %d %#x", count, int64(end), h.Sum64(), wantCount, int64(wantEnd), uint64(wantSum))
	}
	if events != wantEvents {
		t.Fatalf("%d events by the last completion, want %d", events, wantEvents)
	}
	for i, w := range wantFirst {
		if first[i] != w {
			t.Fatalf("completion %d at %v, want %v", i, first[i], w)
		}
	}
}

// After one warm-up pass has sized the record and event pools, 1 000 more
// back-to-back transactions allocate nothing.
func TestTxnChainAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// On one P, as testing.AllocsPerRun measures: the runtime's own work
	// (a timer re-armed, a new M for an idle P) then cannot allocate inside
	// the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, m := newMachine(2)
	delivered := 0
	deliver := func() { delivered++ }
	var delta uint64
	s.Spawn("issuer", func(p *sim.Proc) {
		burst := func() {
			for i := 0; i < 1000; i++ {
				// 5 µs apart keeps both Elans under full load, so only a
				// few records are ever in flight.
				m.Nodes[i&1].Txn(1-i&1, i%40, i%4 == 0, deliver)
				p.Advance(5 * time.Microsecond)
			}
			p.Advance(time.Millisecond) // drain
		}
		burst()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		burst()
		runtime.ReadMemStats(&m1)
		delta = m1.Mallocs - m0.Mallocs
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2000 {
		t.Fatalf("delivered %d of 2000", delivered)
	}
	if delta != 0 {
		t.Fatalf("1000 warm transactions allocated %d objects", delta)
	}
}
