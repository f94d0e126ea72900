package core

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

func TestAcctChargeAdvancesAndBooks(t *testing.T) {
	s := sim.NewScheduler(1)
	a := NewAcct()
	s.Spawn("p", func(p *sim.Proc) {
		p.Ledger = &a.Ledger
		a.Spend(p, sim.Wire, 5*time.Microsecond)
		a.Spend(p, sim.Wire, 3*time.Microsecond)
		a.Spend(p, sim.Copy, 0) // zero: no-op
		if p.Now() != sim.Time(8*time.Microsecond) {
			t.Errorf("proc at %v, want 8us", p.Now())
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Spent[sim.Wire] != 8*time.Microsecond {
		t.Fatalf("wire = %v", a.Spent[sim.Wire])
	}
	v := a.View()
	if v.Time[CostWire] != 8*time.Microsecond {
		t.Fatalf("view wire = %v", v.Time[CostWire])
	}
	if _, ok := v.Time[CostCopy]; ok {
		t.Fatal("zero charge booked")
	}
	if a.Time != nil || a.Count != nil {
		t.Fatal("View filled the maps of the rank's own books")
	}
}

func TestAcctNilSafe(t *testing.T) {
	s := sim.NewScheduler(1)
	var a *Acct
	s.Spawn("p", func(p *sim.Proc) {
		a.Spend(p, sim.Wire, time.Microsecond) // must still advance
		if p.Now() != sim.Time(time.Microsecond) {
			t.Errorf("nil acct did not advance proc")
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	a.Book(CostWire, time.Microsecond) // no panic
	a.Incr("send", 1)                  // no panic
	a.Raise(ctrPostedMax, 3)           // no panic
}

func TestAcctMergeAndString(t *testing.T) {
	a, b := NewAcct(), NewAcct()
	a.Book(CostMatch, 10*time.Microsecond)
	a.Incr("send", 2)
	a.Raise(ctrPostedMax, 7)
	b.Book(CostMatch, 5*time.Microsecond)
	b.Record(sim.Sync, time.Microsecond)
	b.Add(ctrSend, 3)
	b.Raise(ctrPostedMax, 4)
	a.Merge(b)
	v := a.View()
	if v.Time[CostMatch] != 15*time.Microsecond || v.Time[CostSync] != time.Microsecond {
		t.Fatalf("merge: %+v", v.Time)
	}
	if v.Count["send"] != 5 || v.Count["match.posted-max"] != 7 {
		t.Fatalf("counters: %+v", v.Count)
	}
	out := a.String()
	if !strings.Contains(out, "match") || !strings.Contains(out, "15.0 us") {
		t.Fatalf("render:\n%s", out)
	}
	a.Merge(nil) // no panic
}

// The string API names only what is registered: a typo must not open a
// second, silent store.
func TestAcctUnknownNamePanics(t *testing.T) {
	for name, f := range map[string]func(a *Acct){
		"counter":  func(a *Acct) { a.Incr("no-such-counter", 1) },
		"category": func(a *Acct) { a.Book("no-such-category", 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("unknown %s did not panic", name)
				}
			}()
			f(NewAcct())
		}()
	}
}

// An indexed charge and an indexed count are the send and receive paths'
// whole bookkeeping: they must not allocate. The ledger's size is pinned so
// a counter registered per call site, or a map beside the arrays, cannot
// grow it back unnoticed across a 1 024-rank world.
func TestAcctHotPathAllocFreeAndSizePinned(t *testing.T) {
	s := sim.NewScheduler(1)
	a := NewAcct()
	s.Spawn("p", func(p *sim.Proc) {
		p.Ledger = &a.Ledger
		if n := testing.AllocsPerRun(1000, func() { a.Spend(p, sim.Overhead, time.Microsecond) }); n != 0 {
			t.Errorf("indexed charge: %v allocs", n)
		}
		if n := testing.AllocsPerRun(1000, func() { p.Spend(sim.Syscall, time.Microsecond) }); n != 0 {
			t.Errorf("medium charge: %v allocs", n)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { a.Add(ctrSend, 1); a.Raise(ctrPostedMax, 2) }); n != 0 {
		t.Errorf("indexed count: %v allocs", n)
	}
	if got, want := unsafe.Sizeof(Acct{}), uintptr(2*int(sim.NumCats)*8+maxCtrs*8+2*8); got != want || got != 864 {
		t.Errorf("per-rank ledger is %d B, pinned at 864 (%d counter slots)", got, maxCtrs)
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeStandard: "standard", ModeSync: "sync", ModeReady: "ready", ModeBuffered: "buffered",
	} {
		if m.String() != want {
			t.Fatalf("%d = %q", m, m.String())
		}
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode renders empty")
	}
}

func TestPacketKindStrings(t *testing.T) {
	for k, want := range map[PacketKind]string{
		PktEager: "eager", PktRTS: "rts", PktCTS: "cts", PktData: "data", PktSyncAck: "syncack", PktCredit: "credit",
	} {
		if k.String() != want {
			t.Fatalf("%d = %q", k, k.String())
		}
	}
	if PacketKind(99).String() != "unknown" {
		t.Fatal("unknown kind")
	}
}

func TestErrorRendering(t *testing.T) {
	err := Errorf(ErrTruncate, "lost %d bytes", 5)
	if err.Code != ErrTruncate || !strings.Contains(err.Error(), "lost 5 bytes") {
		t.Fatalf("err = %v", err)
	}
}
