package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// world spins up n engines on a MemFabric and runs body[i] as rank i's
// process. It fails the test on deadlock or unexpected engine errors.
type world struct {
	s    *sim.Scheduler
	fab  *MemFabric
	engs []*Engine
}

func newWorld(n int, latency sim.Duration, eager, credits int) *world {
	s := sim.NewScheduler(1)
	fab := NewMemFabric(s, latency, eager)
	fab.Credits = credits
	w := &world{s: s, fab: fab}
	for i := 0; i < n; i++ {
		e := NewEngine(s, i, n, EngineCosts{})
		fab.Attach(e)
		w.engs = append(w.engs, e)
	}
	return w
}

func (w *world) run(t *testing.T, bodies ...func(p *sim.Proc, e *Engine)) sim.Time {
	t.Helper()
	for i, body := range bodies {
		if body == nil {
			continue
		}
		i, body := i, body
		w.s.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			p.Ledger = &w.engs[i].Acct().Ledger // as mpi.Launch does
			body(p, w.engs[i])
			w.engs[i].Finalize(p) // as mpi.Launch does after each rank body
		})
	}
	w.s.MaxEvents = 1_000_000
	end, err := w.s.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return end
}

func mustSend(t *testing.T, p *sim.Proc, e *Engine, dst, tag int, data []byte) {
	t.Helper()
	req, err := e.Isend(p, dst, tag, 0, ModeStandard, data)
	if err != nil {
		t.Fatalf("Isend: %v", err)
	}
	if _, err := e.Wait(p, req); err != nil {
		t.Fatalf("Wait(send): %v", err)
	}
}

func mustRecv(t *testing.T, p *sim.Proc, e *Engine, src, tag int, buf []byte) Status {
	t.Helper()
	req, err := e.Irecv(p, src, tag, 0, buf)
	if err != nil {
		t.Fatalf("Irecv: %v", err)
	}
	st, err := e.Wait(p, req)
	if err != nil {
		t.Fatalf("Wait(recv): %v", err)
	}
	return st
}

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}

func TestEagerSendRecv(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	data := payload(64)
	got := make([]byte, 64)
	var st Status
	w.run(t,
		func(p *sim.Proc, e *Engine) { mustSend(t, p, e, 1, 7, data) },
		func(p *sim.Proc, e *Engine) { st = mustRecv(t, p, e, 0, 7, got) },
	)
	if !bytes.Equal(got, data) {
		t.Fatal("payload corrupted")
	}
	if st.Source != 0 || st.Tag != 7 || st.Count != 64 {
		t.Fatalf("status = %+v", st)
	}
}

func TestRendezvousSendRecv(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	data := payload(5000)
	got := make([]byte, 5000)
	w.run(t,
		func(p *sim.Proc, e *Engine) { mustSend(t, p, e, 1, 1, data) },
		func(p *sim.Proc, e *Engine) { mustRecv(t, p, e, 0, 1, got) },
	)
	if !bytes.Equal(got, data) {
		t.Fatal("rendezvous payload corrupted")
	}
}

func TestRecvPostedBeforeSend(t *testing.T) {
	for _, size := range []int{10, 5000} {
		w := newWorld(2, time.Microsecond, 180, 0)
		data := payload(size)
		got := make([]byte, size)
		w.run(t,
			func(p *sim.Proc, e *Engine) {
				p.Advance(100 * time.Microsecond) // receiver posts first
				mustSend(t, p, e, 1, 3, data)
			},
			func(p *sim.Proc, e *Engine) { mustRecv(t, p, e, 0, 3, got) },
		)
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: payload corrupted", size)
		}
	}
}

func TestSendBeforeRecvUnexpected(t *testing.T) {
	for _, size := range []int{10, 5000} {
		w := newWorld(2, time.Microsecond, 180, 0)
		data := payload(size)
		got := make([]byte, size)
		w.run(t,
			func(p *sim.Proc, e *Engine) { mustSend(t, p, e, 1, 3, data) },
			func(p *sim.Proc, e *Engine) {
				p.Advance(500 * time.Microsecond) // message arrives unexpected
				mustRecv(t, p, e, 0, 3, got)
			},
		)
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: payload corrupted", size)
		}
	}
}

func TestTruncationError(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	var gotErr error
	var st Status
	w.run(t,
		func(p *sim.Proc, e *Engine) { mustSend(t, p, e, 1, 0, payload(100)) },
		func(p *sim.Proc, e *Engine) {
			req, _ := e.Irecv(p, 0, 0, 0, make([]byte, 40))
			st, gotErr = e.Wait(p, req)
		},
	)
	var me *Error
	if !errors.As(gotErr, &me) || me.Code != ErrTruncate {
		t.Fatalf("err = %v, want truncation", gotErr)
	}
	if st.Count != 40 {
		t.Fatalf("count = %d, want 40", st.Count)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := newWorld(3, time.Microsecond, 180, 0)
	var sources []int
	w.run(t,
		func(p *sim.Proc, e *Engine) { mustSend(t, p, e, 2, 11, payload(8)) },
		func(p *sim.Proc, e *Engine) {
			p.Advance(50 * time.Microsecond)
			mustSend(t, p, e, 2, 22, payload(8))
		},
		func(p *sim.Proc, e *Engine) {
			for i := 0; i < 2; i++ {
				st := mustRecv(t, p, e, AnySource, AnyTag, make([]byte, 8))
				sources = append(sources, st.Source)
			}
		},
	)
	if len(sources) != 2 || sources[0] != 0 || sources[1] != 1 {
		t.Fatalf("sources = %v, want [0 1] (arrival order)", sources)
	}
}

func TestNonOvertakingSameTag(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	var first, second byte
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			mustSend(t, p, e, 1, 5, []byte{1})
			mustSend(t, p, e, 1, 5, []byte{2})
		},
		func(p *sim.Proc, e *Engine) {
			b := make([]byte, 1)
			mustRecv(t, p, e, 0, 5, b)
			first = b[0]
			mustRecv(t, p, e, 0, 5, b)
			second = b[0]
		},
	)
	if first != 1 || second != 2 {
		t.Fatalf("order = %d,%d; want 1,2", first, second)
	}
}

func TestTagSelectiveOutOfOrder(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	var byTag2, byTag1 byte
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			mustSend(t, p, e, 1, 1, []byte{10})
			mustSend(t, p, e, 1, 2, []byte{20})
		},
		func(p *sim.Proc, e *Engine) {
			p.Advance(time.Millisecond)
			b := make([]byte, 1)
			mustRecv(t, p, e, 0, 2, b) // retrieve tag 2 first
			byTag2 = b[0]
			mustRecv(t, p, e, 0, 1, b)
			byTag1 = b[0]
		},
	)
	if byTag2 != 20 || byTag1 != 10 {
		t.Fatalf("got tag2=%d tag1=%d", byTag2, byTag1)
	}
}

func TestSsendWaitsForMatch(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	const recvDelay = 400 * time.Microsecond
	var sendDone sim.Time
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			req, err := e.Isend(p, 1, 0, 0, ModeSync, payload(4))
			if err != nil {
				t.Errorf("Isend: %v", err)
				return
			}
			e.Wait(p, req)
			sendDone = p.Now()
		},
		func(p *sim.Proc, e *Engine) {
			p.Advance(recvDelay)
			mustRecv(t, p, e, 0, 0, make([]byte, 4))
		},
	)
	if sendDone < sim.Time(recvDelay) {
		t.Fatalf("Ssend completed at %v, before the receive was posted at %v", sendDone, recvDelay)
	}
}

func TestStandardEagerDoesNotWaitForMatch(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	var sendDone sim.Time
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			mustSend(t, p, e, 1, 0, payload(4))
			sendDone = p.Now()
		},
		func(p *sim.Proc, e *Engine) {
			p.Advance(time.Millisecond)
			mustRecv(t, p, e, 0, 0, make([]byte, 4))
		},
	)
	if sendDone > sim.Time(100*time.Microsecond) {
		t.Fatalf("standard eager send blocked until %v", sendDone)
	}
}

// A ready-mode send that arrives before its receive is posted records one
// ErrReady at the receiver and is still delivered: eager, rendezvous-sized
// and sent to self alike.
func TestRsendUnmatchedRecordsError(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dst, n   int
		receiver int
	}{{"eager", 1, 4, 1}, {"rendezvous", 1, 4000, 1}, {"self", 0, 4, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(2, time.Microsecond, 180, 0)
			got := make([]byte, tc.n)
			w.run(t,
				func(p *sim.Proc, e *Engine) {
					req, _ := e.Isend(p, tc.dst, 0, 0, ModeReady, payload(tc.n))
					e.Wait(p, req)
					if tc.dst == 0 {
						mustRecv(t, p, e, 0, 0, got)
					}
				},
				func(p *sim.Proc, e *Engine) {
					if tc.dst == 1 {
						p.Advance(time.Millisecond)
						mustRecv(t, p, e, 0, 0, got)
					}
				},
			)
			if !bytes.Equal(got, payload(tc.n)) {
				t.Error("message not delivered")
			}
			errs := w.engs[tc.receiver].Errors
			if len(errs) != 1 {
				t.Fatalf("%d errors recorded at the receiver, want one ErrReady: %v", len(errs), errs)
			}
			var me *Error
			if !errors.As(errs[0], &me) || me.Code != ErrReady {
				t.Fatalf("error = %v, want ErrReady", errs[0])
			}
		})
	}
}

func TestRsendMatchedOK(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	got := make([]byte, 4)
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			p.Advance(100 * time.Microsecond) // receive is posted by now
			req, _ := e.Isend(p, 1, 0, 0, ModeReady, payload(4))
			e.Wait(p, req)
		},
		func(p *sim.Proc, e *Engine) { mustRecv(t, p, e, 0, 0, got) },
	)
	if len(w.engs[1].Errors) != 0 {
		t.Fatalf("unexpected errors: %v", w.engs[1].Errors)
	}
}

func TestBsendWithoutAttachFails(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			_, err := e.Isend(p, 1, 0, 0, ModeBuffered, payload(4))
			var me *Error
			if !errors.As(err, &me) || me.Code != ErrBuffer {
				t.Errorf("err = %v, want ErrBuffer", err)
			}
		},
		nil,
	)
}

func TestBsendCompletesImmediatelyAndDelivers(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	data := payload(64)
	got := make([]byte, 64)
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			e.BufferAttach(1024)
			req, err := e.Isend(p, 1, 0, 0, ModeBuffered, data)
			if err != nil {
				t.Errorf("Bsend: %v", err)
				return
			}
			if !req.Done() {
				t.Error("Bsend request not complete at return")
			}
		},
		func(p *sim.Proc, e *Engine) {
			p.Advance(time.Millisecond)
			mustRecv(t, p, e, 0, 0, got)
		},
	)
	if !bytes.Equal(got, data) {
		t.Fatal("Bsend payload corrupted")
	}
}

func TestBsendSpaceFreedAfterDelivery(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			e.BufferAttach(100)
			for i := 0; i < 5; i++ {
				if _, err := e.Isend(p, 1, i, 0, ModeBuffered, payload(80)); err != nil {
					t.Errorf("Bsend %d: %v", i, err)
				}
				// Give the fabric time to drain so space frees.
				p.Advance(time.Millisecond)
			}
		},
		func(p *sim.Proc, e *Engine) {
			for i := 0; i < 5; i++ {
				mustRecv(t, p, e, 0, i, make([]byte, 80))
			}
		},
	)
}

func TestProbeThenRecv(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	var probed Status
	w.run(t,
		func(p *sim.Proc, e *Engine) { mustSend(t, p, e, 1, 42, payload(17)) },
		func(p *sim.Proc, e *Engine) {
			st, err := e.Probe(p, AnySource, AnyTag, 0)
			if err != nil {
				t.Errorf("Probe: %v", err)
				return
			}
			probed = st
			buf := make([]byte, st.Count)
			mustRecv(t, p, e, st.Source, st.Tag, buf)
		},
	)
	if probed.Count != 17 || probed.Tag != 42 || probed.Source != 0 {
		t.Fatalf("probed = %+v", probed)
	}
}

func TestIprobeNoMessage(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			if _, ok, _ := e.Iprobe(p, AnySource, AnyTag, 0); ok {
				t.Error("Iprobe found a phantom message")
			}
		},
		nil,
	)
}

func TestTestPollsToCompletion(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	w.run(t,
		func(p *sim.Proc, e *Engine) { mustSend(t, p, e, 1, 0, payload(8)) },
		func(p *sim.Proc, e *Engine) {
			req, _ := e.Irecv(p, 0, 0, 0, make([]byte, 8))
			n := 0
			for {
				_, ok, err := e.Test(p, req)
				if err != nil {
					t.Errorf("Test: %v", err)
					return
				}
				if ok {
					break
				}
				n++
				p.Advance(time.Microsecond)
			}
		},
	)
}

func TestCancelPostedRecv(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			req, _ := e.Irecv(p, 0, 9, 0, make([]byte, 8))
			if ok, err := e.Cancel(p, req); err != nil || !ok {
				t.Errorf("Cancel = %v, %v; want the posted receive cancelled", ok, err)
			}
			// The successful Cancel consumed req: any further use is loud.
			if _, err := e.Wait(p, req); err == nil {
				t.Error("Wait on a cancelled (consumed) request succeeded")
			}
		},
		nil,
	)
}

func TestFlowControlLimitedCreditsNoDeadlock(t *testing.T) {
	// Credits cover only one 100-byte message; ten sends must round-trip
	// credit returns, but everything delivers and nothing deadlocks.
	w := newWorld(2, time.Microsecond, 180, 100)
	const msgs = 10
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			for i := 0; i < msgs; i++ {
				mustSend(t, p, e, 1, i, payload(100))
			}
		},
		func(p *sim.Proc, e *Engine) {
			for i := 0; i < msgs; i++ {
				got := make([]byte, 100)
				mustRecv(t, p, e, 0, i, got)
				if !bytes.Equal(got, payload(100)) {
					t.Errorf("msg %d corrupted", i)
				}
			}
		},
	)
}

func TestFlowControlBlocksSender(t *testing.T) {
	// With credits for one message and a receiver that delays, the second
	// send cannot start until a credit returns.
	w := newWorld(2, time.Microsecond, 180, 100)
	const delay = time.Millisecond
	var secondSent sim.Time
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			mustSend(t, p, e, 1, 0, payload(100))
			mustSend(t, p, e, 1, 1, payload(100))
			secondSent = p.Now()
		},
		func(p *sim.Proc, e *Engine) {
			p.Advance(delay)
			mustRecv(t, p, e, 0, 0, make([]byte, 100))
			mustRecv(t, p, e, 0, 1, make([]byte, 100))
		},
	)
	if secondSent < sim.Time(delay) {
		t.Fatalf("second send completed at %v, before receiver consumed the first at %v", secondSent, delay)
	}
}

// The fabric's credits go through the same SendQueue as the Meiko's slots
// and the sockets' byte credits, so it books the same flow counters: three
// 100-byte sends behind a one-message allotment queue, and the rendezvous
// envelope behind them (it costs no credit) still waits its turn. With
// unlimited credits the fabric keeps no queue at all.
func TestFabricSendQueueBooksFlowCounters(t *testing.T) {
	for _, credits := range []int{0, 100} {
		w := newWorld(2, time.Microsecond, 180, credits)
		var tags []int
		w.run(t,
			func(p *sim.Proc, e *Engine) {
				var reqs []*Request
				for i, n := range []int{100, 100, 100, 4096} {
					r, err := e.Isend(p, 1, i, 0, ModeStandard, payload(n))
					if err != nil {
						t.Fatalf("Isend: %v", err)
					}
					reqs = append(reqs, r)
				}
				for _, r := range reqs {
					if _, err := e.Wait(p, r); err != nil {
						t.Errorf("Wait: %v", err)
					}
				}
			},
			func(p *sim.Proc, e *Engine) {
				p.Advance(time.Millisecond)
				for i := 0; i < 4; i++ {
					tags = append(tags, mustRecv(t, p, e, 0, AnyTag, make([]byte, 4096)).Tag)
				}
			},
		)
		if fmt.Sprint(tags) != "[0 1 2 3]" {
			t.Errorf("credits %d: received tags %v, want issue order", credits, tags)
		}
		fc := w.engs[0].fc
		c := w.engs[0].Acct().View().Count
		if credits == 0 {
			if fc != nil || c["flow-queued"] != 0 {
				t.Errorf("unlimited credits: queue %v, %d sends queued; want none", fc, c["flow-queued"])
			}
			continue
		}
		if c["flow-queued"] != 3 || c["flow-granted"] != 3 {
			t.Errorf("flow-queued %d, flow-granted %d; want 3 and 3", c["flow-queued"], c["flow-granted"])
		}
		if got := fc.Available(1); got != credits {
			t.Errorf("%d credits toward rank 1 after every message was consumed, want %d", got, credits)
		}
	}
}

func TestManyRanksAllToOne(t *testing.T) {
	const n = 8
	w := newWorld(n, time.Microsecond, 180, 0)
	bodies := make([]func(p *sim.Proc, e *Engine), n)
	var total int
	for i := 1; i < n; i++ {
		i := i
		bodies[i] = func(p *sim.Proc, e *Engine) {
			mustSend(t, p, e, 0, i, payload(i*100)) // mix of eager and rndv
		}
	}
	bodies[0] = func(p *sim.Proc, e *Engine) {
		for i := 1; i < n; i++ {
			st := mustRecv(t, p, e, AnySource, AnyTag, make([]byte, 4096))
			total += st.Count
		}
	}
	w.run(t, bodies...)
	want := 0
	for i := 1; i < n; i++ {
		want += i * 100
	}
	if total != want {
		t.Fatalf("total bytes = %d, want %d", total, want)
	}
}

func TestSendToInvalidRank(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			if _, err := e.Isend(p, 5, 0, 0, ModeStandard, nil); err == nil {
				t.Error("send to rank 5 of 2 succeeded")
			}
			if _, err := e.Irecv(p, 5, 0, 0, nil); err == nil {
				t.Error("recv from rank 5 of 2 succeeded")
			}
		},
		nil,
	)
}

func TestZeroByteMessage(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	var st Status
	w.run(t,
		func(p *sim.Proc, e *Engine) { mustSend(t, p, e, 1, 3, nil) },
		func(p *sim.Proc, e *Engine) { st = mustRecv(t, p, e, 0, 3, nil) },
	)
	if st.Count != 0 || st.Tag != 3 {
		t.Fatalf("status = %+v", st)
	}
}

func TestContextIsolation(t *testing.T) {
	// A message on context 1 must not match a receive on context 2.
	w := newWorld(2, time.Microsecond, 180, 0)
	var order []int
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			r1, _ := e.Isend(p, 1, 0, 1, ModeStandard, []byte{1})
			r2, _ := e.Isend(p, 1, 0, 2, ModeStandard, []byte{2})
			e.Wait(p, r1)
			e.Wait(p, r2)
		},
		func(p *sim.Proc, e *Engine) {
			b := make([]byte, 1)
			req, _ := e.Irecv(p, 0, 0, 2, b)
			e.Wait(p, req)
			order = append(order, int(b[0]))
			req, _ = e.Irecv(p, 0, 0, 1, b)
			e.Wait(p, req)
			order = append(order, int(b[0]))
		},
	)
	if order[0] != 2 || order[1] != 1 {
		t.Fatalf("order = %v; context isolation broken", order)
	}
}

func TestPingPongDeterministic(t *testing.T) {
	run := func() sim.Time {
		w := newWorld(2, 3*time.Microsecond, 180, 0)
		return w.run(t,
			func(p *sim.Proc, e *Engine) {
				for i := 0; i < 10; i++ {
					mustSend(t, p, e, 1, 0, payload(32))
					mustRecv(t, p, e, 1, 0, make([]byte, 32))
				}
			},
			func(p *sim.Proc, e *Engine) {
				for i := 0; i < 10; i++ {
					mustRecv(t, p, e, 0, 0, make([]byte, 32))
					mustSend(t, p, e, 0, 0, payload(32))
				}
			},
		)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestAcctChargesBooked(t *testing.T) {
	s := sim.NewScheduler(1)
	fab := NewMemFabric(s, time.Microsecond, 180)
	costs := EngineCosts{Match: 2 * time.Microsecond, CopyPerByte: 10 * time.Nanosecond, SendOverhead: time.Microsecond, RecvOverhead: time.Microsecond}
	e0 := NewEngine(s, 0, 2, costs)
	e1 := NewEngine(s, 1, 2, costs)
	fab.Attach(e0)
	fab.Attach(e1)
	s.Spawn("r0", func(p *sim.Proc) {
		p.Ledger = &e0.Acct().Ledger
		req, _ := e0.Isend(p, 1, 0, 0, ModeStandard, payload(100))
		e0.Wait(p, req)
	})
	s.Spawn("r1", func(p *sim.Proc) {
		p.Ledger = &e1.Acct().Ledger
		req, _ := e1.Irecv(p, 0, 0, 0, make([]byte, 100))
		e1.Wait(p, req)
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	v0, v1 := e0.Acct().View(), e1.Acct().View()
	if v0.Time[CostOverhead] == 0 {
		t.Error("sender overhead not booked")
	}
	if v1.Time[CostMatch] == 0 {
		t.Error("receiver match cost not booked")
	}
	if v1.Time[CostCopy] != 100*10*time.Nanosecond {
		t.Errorf("copy cost = %v, want 1us", v1.Time[CostCopy])
	}
	if v0.Count["send"] != 1 || v1.Count["recv"] != 1 {
		t.Error("counters not bumped")
	}
}

// --- regression tests for bugs found by the conformance suite ---

// Isend must not block on flow control (MPI nonblocking semantics): with
// credits for one message, a burst of Isends returns immediately and the
// queued messages drain as the receiver consumes.
func TestIsendNeverBlocksOnCredits(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 100)
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			start := p.Now()
			var reqs []*Request
			for i := 0; i < 8; i++ {
				r, err := e.Isend(p, 1, i, 0, ModeStandard, payload(100))
				if err != nil {
					t.Errorf("Isend %d: %v", i, err)
					return
				}
				reqs = append(reqs, r)
			}
			if p.Now()-start > sim.Time(50*time.Microsecond) {
				t.Errorf("Isend burst blocked: took %v", p.Now()-start)
			}
			for _, r := range reqs {
				e.Wait(p, r)
			}
		},
		func(p *sim.Proc, e *Engine) {
			p.Advance(time.Millisecond)
			for i := 0; i < 8; i++ {
				mustRecv(t, p, e, 0, i, make([]byte, 100))
			}
		},
	)
}

// A queued eager message must not be overtaken by a later rendezvous
// envelope to the same destination (non-overtaking across protocols).
func TestQueuedEagerNotOvertakenByRendezvous(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 100)
	var order []int
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			// First: eager that fits. Second: eager that must queue
			// (credits exhausted). Third: rendezvous with the same tag.
			r1, _ := e.Isend(p, 1, 7, 0, ModeStandard, payload(100))
			r2, _ := e.Isend(p, 1, 7, 0, ModeStandard, payload(100))
			r3, _ := e.Isend(p, 1, 7, 0, ModeStandard, payload(5000))
			for _, r := range []*Request{r1, r2, r3} {
				e.Wait(p, r)
			}
		},
		func(p *sim.Proc, e *Engine) {
			p.Advance(500 * time.Microsecond)
			for i := 0; i < 3; i++ {
				buf := make([]byte, 5000)
				req, _ := e.Irecv(p, 0, 7, 0, buf)
				st, err := e.Wait(p, req)
				if err != nil {
					t.Errorf("recv %d: %v", i, err)
					return
				}
				order = append(order, st.Count)
			}
		},
	)
	want := []int{100, 100, 5000}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", order, want)
		}
	}
}

// Buffered sends above the eager threshold (rendezvous) must survive an
// immediate Wait: the CTS arrives after the request looks complete.
func TestBufferedRendezvousSend(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	data := payload(5000)
	got := make([]byte, 5000)
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			e.BufferAttach(64 * 1024)
			req, err := e.Isend(p, 1, 0, 0, ModeBuffered, data)
			if err != nil {
				t.Errorf("Bsend: %v", err)
				return
			}
			if !req.Done() {
				t.Error("buffered request not complete at return")
			}
			e.Wait(p, req)
		},
		func(p *sim.Proc, e *Engine) {
			p.Advance(time.Millisecond)
			mustRecv(t, p, e, 0, 0, got)
		},
	)
	if !bytes.Equal(got, data) {
		t.Fatal("buffered rendezvous payload corrupted")
	}
}

// Self-sends work in all modes (MPI requires them).
func TestSelfSendAllModes(t *testing.T) {
	w := newWorld(1, time.Microsecond, 180, 0)
	w.run(t, func(p *sim.Proc, e *Engine) {
		e.BufferAttach(4096)
		// Standard, buffered: locally complete; receive retrieves them.
		for i, mode := range []Mode{ModeStandard, ModeBuffered} {
			req, err := e.Isend(p, 0, i, 0, mode, payload(64))
			if err != nil {
				t.Errorf("self %v: %v", mode, err)
				return
			}
			if _, err := e.Wait(p, req); err != nil {
				t.Errorf("wait self %v: %v", mode, err)
			}
		}
		for i := 0; i < 2; i++ {
			got := make([]byte, 64)
			st := mustRecv(t, p, e, 0, i, got)
			if st.Source != 0 || !bytes.Equal(got, payload(64)) {
				t.Errorf("self recv %d: %+v", i, st)
			}
		}
		// Synchronous: post the receive first, then Ssend completes.
		rr, _ := e.Irecv(p, 0, 9, 0, make([]byte, 8))
		sreq, err := e.Isend(p, 0, 9, 0, ModeSync, payload(8))
		if err != nil {
			t.Errorf("self ssend: %v", err)
			return
		}
		if _, err := e.Wait(p, sreq); err != nil {
			t.Errorf("wait self ssend: %v", err)
		}
		if _, err := e.Wait(p, rr); err != nil {
			t.Errorf("wait self recv: %v", err)
		}
		// Large self-send (would be rendezvous remotely).
		big := payload(5000)
		bigBuf := make([]byte, 5000)
		br, _ := e.Isend(p, 0, 11, 0, ModeStandard, big)
		e.Wait(p, br)
		mustRecv(t, p, e, 0, 11, bigBuf)
		if !bytes.Equal(bigBuf, big) {
			t.Error("large self-send corrupted")
		}
	})
}

// A synchronous self-send with no matching receive must deadlock-detect
// (the program is erroneous); with a receive posted later it completes.
func TestSelfSsendRequiresReceive(t *testing.T) {
	s := sim.NewScheduler(1)
	fab := NewMemFabric(s, time.Microsecond, 180)
	e := NewEngine(s, 0, 1, EngineCosts{})
	fab.Attach(e)
	s.Spawn("r0", func(p *sim.Proc) {
		req, _ := e.Isend(p, 0, 0, 0, ModeSync, payload(4))
		e.Wait(p, req) // never completes: no receive
	})
	if _, err := s.Run(); err == nil {
		t.Fatal("sync self-send without receive did not deadlock")
	}
}
