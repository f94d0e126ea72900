package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// With a per-byte cost a small store burst is faster than a large one, so
// the fabric must hold it back behind an earlier burst toward the same
// destination (write-buffer FIFO) — and only toward that destination.
func TestFabricPerByteKeepsIssueOrderPerDestination(t *testing.T) {
	w := newWorld(3, time.Microsecond, 64<<10, 0)
	w.fab.PerByte = time.Nanosecond
	const big = 40000
	var got1 []Status
	var at1, at2 sim.Time
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			for _, m := range []struct{ dst, tag, n int }{{1, 1, big}, {1, 2, 1}, {2, 3, 1}} {
				if _, err := e.Isend(p, m.dst, m.tag, 0, ModeStandard, payload(m.n)); err != nil {
					t.Errorf("Isend: %v", err)
				}
			}
		},
		func(p *sim.Proc, e *Engine) {
			buf := make([]byte, big)
			got1 = append(got1, mustRecv(t, p, e, 0, AnyTag, buf), mustRecv(t, p, e, 0, AnyTag, buf))
			at1 = p.Now()
		},
		func(p *sim.Proc, e *Engine) {
			mustRecv(t, p, e, 0, 3, make([]byte, 1))
			at2 = p.Now()
		},
	)
	if len(got1) != 2 || got1[0].Tag != 1 || got1[1].Tag != 2 {
		t.Fatalf("rank 1 received %+v, want tags 1 then 2: the 1-byte burst overtook the %d-byte one", got1, big)
	}
	if want := sim.Time(time.Microsecond + big*time.Nanosecond); at1 != want {
		t.Errorf("rank 1 finished at %v, want %v (second arrival clamped to the first)", at1, want)
	}
	if want := sim.Time(time.Microsecond + time.Nanosecond); at2 != want {
		t.Errorf("rank 2 finished at %v, want %v: a transfer toward another destination delayed it", at2, want)
	}
}

// A flat-latency fabric is already monotone, so it must keep no clamp
// state: one map per rank would be the largest live structure of a
// 1 024-rank mem world (the benchmark's allreduce_shard bounds host_live_mb).
func TestFabricFlatLatencyKeepsNoClampState(t *testing.T) {
	const msgs = 10_000
	w := newWorld(2, time.Microsecond, 180, 0)
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			for i := 0; i < msgs; i++ {
				mustSend(t, p, e, 1, 0, payload(i%300)) // eager and rendezvous
			}
		},
		func(p *sim.Proc, e *Engine) {
			buf := make([]byte, 300)
			for i := 0; i < msgs; i++ {
				mustRecv(t, p, e, 0, 0, buf)
			}
		},
	)
	for rank, ep := range w.fab.eps {
		if ep.lastArrival != nil {
			t.Errorf("rank %d holds %d clamp entries after %d sends with PerByte == 0", rank, len(ep.lastArrival), msgs)
		}
	}
}

func TestInbox(t *testing.T) {
	var in Inbox
	if in.Pop() != nil || in.Len() != 0 {
		t.Fatal("zero Inbox is not empty")
	}
	// FIFO under interleaved push/pop: two in, one out, then drain.
	pkts := make([]*Packet, 64)
	for i := range pkts {
		pkts[i] = &Packet{ReqID: int64(i)}
	}
	next := 0
	pop := func() {
		t.Helper()
		if got := in.Pop(); got != pkts[next] {
			t.Fatalf("pop %d returned packet %v", next, got)
		}
		next++
	}
	for i := 0; i < len(pkts); i += 2 {
		in.Push(pkts[i])
		in.Push(pkts[i+1])
		pop()
		if want := i + 2 - next; in.Len() != want {
			t.Fatalf("Len = %d, want %d", in.Len(), want)
		}
	}
	for in.Len() > 0 {
		pop()
	}
	if in.Pop() != nil {
		t.Fatal("Pop on a drained inbox is not nil")
	}
	// Steady state: one in, one out reuses the array (sim.TestQueue checks
	// that popped slots are cleared).
	if n := testing.AllocsPerRun(10_000, func() { in.Push(pkts[0]); in.Pop() }); n != 0 {
		t.Fatalf("one-in-one-out cycle allocates %v objects", n)
	}
}

// auditFlights walks every place a flight can rest — idle lists, inboxes,
// the packet a Poll last surfaced — and fails if a record sits in two of
// them (a double recycle), an idle one still names a destination or a
// payload, or an idle list exceeds its cap. It reports how many distinct
// records it found at rest.
func auditFlights(t *testing.T, w *world) int {
	t.Helper()
	seen := map[*memFlight]string{}
	note := func(f *memFlight, where string) {
		if prev, dup := seen[f]; dup {
			t.Errorf("flight %p rests in %s and in %s", f, prev, where)
		}
		seen[f] = where
	}
	for rank, ep := range w.fab.eps {
		if ep.idle.Len() > sim.DefaultFreeMax {
			t.Errorf("rank %d: %d idle flights, cap %d", rank, ep.idle.Len(), sim.DefaultFreeMax)
		}
		for f := range ep.idle.All() {
			note(f, fmt.Sprintf("rank %d's idle list", rank))
			if f.to != nil || f.pkt.Data != nil || f.pkt.Pool != nil {
				t.Errorf("rank %d: idle flight %p was not cleared: %+v", rank, f, f.pkt)
			}
		}
		for f := range ep.inbox.All() {
			note(f, fmt.Sprintf("rank %d's inbox", rank))
		}
		if ep.polled != nil {
			note(ep.polled, fmt.Sprintf("rank %d's polled slot", rank))
		}
	}
	return len(seen)
}

// One-directional traffic is the case the pools cannot balance: without
// credits nothing ever flies back, with them only credits do. Either way
// no idle list may grow past its cap.
func TestFabricIdleFlightsCapped(t *testing.T) {
	const msgs = 10_000
	for _, credits := range []int{0, 256} {
		t.Run(fmt.Sprintf("credits%d", credits), func(t *testing.T) {
			w := newWorld(2, time.Microsecond, 180, credits)
			w.run(t,
				func(p *sim.Proc, e *Engine) {
					for i := 0; i < msgs; i++ {
						if _, err := e.Isend(p, 1, i, 0, ModeStandard, payload(64)); err != nil {
							t.Fatalf("Isend: %v", err)
						}
					}
				},
				func(p *sim.Proc, e *Engine) {
					buf := make([]byte, 64)
					for i := 0; i < msgs; i++ {
						mustRecv(t, p, e, 0, i, buf)
					}
				},
			)
			if n := auditFlights(t, w); n == 0 || n > 2*sim.DefaultFreeMax+1 {
				t.Errorf("%d flights at rest after %d sends, want between 1 and two full idle lists", n, msgs)
			}
		})
	}
}

// A death while flights are in the air must lose none and recycle none
// twice. Rank 0 dies with a burst toward rank 1 airborne; the burst still
// lands in rank 1's inbox. A survivor (PeerDown) keeps polling, returns the
// flights to its idle list and goes on exchanging with a third rank; a
// rank that turned fatal itself never polls again and keeps them queued.
func TestFabricFlightsSurviveMidFlightFailure(t *testing.T) {
	const burst = 8
	for _, fatal := range []bool{false, true} {
		t.Run(fmt.Sprintf("fatal=%v", fatal), func(t *testing.T) {
			w := newWorld(3, 10*time.Microsecond, 180, 0)
			down := Errorf(ErrPeerDown, "rank 0 died")
			w.s.After(5*time.Microsecond, func() {
				w.engs[0].Fatal(down)
				if fatal {
					w.engs[1].Fatal(down)
				} else {
					w.engs[1].PeerDown(0, down)
				}
			})
			w.run(t,
				func(p *sim.Proc, e *Engine) {
					for i := 0; i < burst; i++ { // eager and rendezvous, all in the air at 5 µs
						if _, err := e.Isend(p, 1, i, 0, ModeStandard, payload(100*(i%3))); err != nil {
							t.Errorf("Isend: %v", err)
						}
					}
				},
				func(p *sim.Proc, e *Engine) {
					req, err := e.Irecv(p, 0, 0, 0, make([]byte, 300))
					if err != nil {
						t.Fatalf("Irecv: %v", err)
					}
					if _, err := e.Wait(p, req); !errors.Is(err, down) {
						t.Errorf("Wait on the dead rank's message: %v, want %v", err, down)
					}
					for i := 0; !fatal && i < 100; i++ {
						mustSend(t, p, e, 2, i, payload(200))
						mustRecv(t, p, e, 2, i, make([]byte, 200))
					}
				},
				func(p *sim.Proc, e *Engine) {
					for i := 0; !fatal && i < 100; i++ {
						mustRecv(t, p, e, 1, i, make([]byte, 200))
						mustSend(t, p, e, 1, i, payload(200))
					}
				},
			)
			if n := auditFlights(t, w); n < burst {
				t.Errorf("%d flights at rest, want at least the %d that were in the air", n, burst)
			}
			if got := w.fab.eps[1].inbox.Len(); fatal && got != burst {
				t.Errorf("fatal rank's inbox holds %d flights, want the %d that landed after it died", got, burst)
			}
		})
	}
}
