package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

func isInternal(err error) bool {
	var ce *Error
	return errors.As(err, &ce) && ce.Code == ErrInternal
}

// A waited request is reissued under a new name, the old name resolves to
// nothing, and any use of the consumed pointer before reissue is a typed
// error and a req-stale count — never a silent alias.
func TestRequestRecycledUnderFreshName(t *testing.T) {
	w := newWorld(2, time.Microsecond, 180, 0)
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			first, _ := e.Isend(p, 1, 0, 0, ModeStandard, payload(8))
			name := first.ID
			if _, err := e.Wait(p, first); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			if first.ID != 0 || first.Buf != nil {
				t.Errorf("released request not zeroed: %+v", first)
			}
			stale := e.acct.Count["req-stale"]
			if _, err := e.Wait(p, first); !isInternal(err) {
				t.Errorf("Wait on a released request = %v, want ErrInternal", err)
			}
			if _, ok, err := e.Test(p, first); ok || !isInternal(err) {
				t.Errorf("Test on a released request = %v, %v, want ErrInternal", ok, err)
			}
			if ok, err := e.Cancel(p, first); ok || !isInternal(err) {
				t.Errorf("Cancel on a released request = %v, %v, want ErrInternal", ok, err)
			}
			if e.ClaimDirect(name) {
				t.Error("ClaimDirect claimed a stale name")
			}
			if got := e.acct.Count["req-stale"] - stale; got != 4 {
				t.Errorf("req-stale rose by %d, want 4", got)
			}
			second, _ := e.Isend(p, 1, 1, 0, ModeStandard, payload(4096)) // rendezvous: tabled until its CTS
			if second != first {
				t.Error("the released request was not reissued")
			}
			if second.ID == name || second.ID&slotMask != name&slotMask {
				t.Errorf("reissue named %#x after %#x: want the same slot, a new generation", second.ID, name)
			}
			if e.resolve(name) != nil || e.resolve(second.ID) != second {
				t.Error("resolve does not tell the stale name from the live one")
			}
			e.Wait(p, second)
		},
		func(p *sim.Proc, e *Engine) {
			mustRecv(t, p, e, 0, 0, make([]byte, 8))
			mustRecv(t, p, e, 0, 1, make([]byte, 4096))
		},
	)
}

// A slot is issued maxGen times and then retired: the next request opens a
// new slot, and no name is ever issued twice.
func TestGenerationWrapRetiresSlot(t *testing.T) {
	w := newWorld(1, time.Microsecond, 180, 0)
	w.run(t, func(p *sim.Proc, e *Engine) {
		seen := make(map[int64]bool)
		for i := 0; i < maxGen+10; i++ {
			r, err := e.Irecv(p, 0, 0, 0, nil)
			if err != nil {
				t.Fatalf("Irecv %d: %v", i, err)
			}
			if seen[r.ID] || r.ID == 0 || r.ID>>32 != 0 {
				t.Fatalf("request %d named %#x: zero, wider than 32 bits or issued before", i, r.ID)
			}
			seen[r.ID] = true
			if wantSlot := int64(i / maxGen); r.ID&slotMask != wantSlot {
				t.Fatalf("request %d sits in slot %d, want %d", i, r.ID&slotMask, wantSlot)
			}
			if ok, err := e.Cancel(p, r); !ok || err != nil {
				t.Fatalf("Cancel %d = %v, %v", i, ok, err)
			}
		}
		if s := e.slots[0]; s.req != nil || s.gen != maxGen || len(e.slots) != 2 || len(e.vacant) != 1 || e.vacant[0] != 1 {
			t.Errorf("slot 0 = %+v of %d slots, vacant %v: want it retired at generation %d and only slot 1 vacant", s, len(e.slots), e.vacant, maxGen)
		}
	})
}

// A rendezvous send failed by PeerDown while it waits behind a credit-starved
// eager send is error-completed: the transport queue held it when it failed,
// so consuming it must not put it back in circulation and its name is dead.
func TestPeerDownFailedRequestNotRecycled(t *testing.T) {
	w := newWorld(3, time.Microsecond, 180, 100)
	w.run(t,
		func(p *sim.Proc, e *Engine) {
			mustSend(t, p, e, 1, 0, payload(100)) // spends the pair's credits
			starved, _ := e.Isend(p, 1, 1, 0, ModeStandard, payload(100))
			rndv, _ := e.Isend(p, 1, 2, 0, ModeStandard, payload(4096))
			tr := e.tr.(*MemTransport)
			if n := tr.fc.QueuedLen(1); n != 2 {
				t.Fatalf("%d sends queued toward rank 1, want both waiting", n)
			}
			e.PeerDown(1, nil)
			for _, r := range []*Request{starved, rndv} {
				name := r.ID
				if _, err := e.Wait(p, r); err == nil || r.Err() == nil || r.ID != name {
					t.Errorf("failed request after Wait: err %v, %+v: want ErrPeerDown kept on an unzeroed request", err, r)
				}
				if e.resolve(name) != nil {
					t.Errorf("failed request %#x still resolves", name)
				}
			}
			next, _ := e.Isend(p, 2, 0, 0, ModeStandard, payload(8))
			if next == starved || next == rndv || e.idle.Len() != 0 {
				t.Error("an error-completed request went back into circulation")
			}
			e.Wait(p, next)
			if e.unsent != 0 {
				t.Errorf("unsent = %d after every send finished or failed, want 0", e.unsent)
			}
		},
		func(p *sim.Proc, e *Engine) { p.Advance(time.Millisecond) }, // alive but never receives
		func(p *sim.Proc, e *Engine) { mustRecv(t, p, e, 0, 0, make([]byte, 8)) },
	)
}

// The idle list is capped: a burst of requests waited at once (the RPC
// server's replies) parks at most sim.DefaultFreeMax of them.
func TestIdleRequestsCapped(t *testing.T) {
	w := newWorld(1, time.Microsecond, 180, 0)
	w.run(t, func(p *sim.Proc, e *Engine) {
		var rs []*Request
		for i := 0; i < 4*sim.DefaultFreeMax; i++ {
			r, _ := e.Irecv(p, 0, i, 0, nil)
			rs = append(rs, r)
		}
		for _, r := range rs {
			e.Cancel(p, r)
		}
		if e.idle.Len() != sim.DefaultFreeMax {
			t.Errorf("%d idle requests after releasing %d, want the cap %d", e.idle.Len(), len(rs), sim.DefaultFreeMax)
		}
	})
}
