package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestAdvanceAccumulates(t *testing.T) {
	s := NewScheduler(1)
	var end Time
	s.Spawn("p", func(p *Proc) {
		p.Advance(10 * time.Microsecond)
		p.Advance(5 * time.Microsecond)
		end = p.Now()
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Time(15 * time.Microsecond); end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestAdvanceNegativeIsZero(t *testing.T) {
	s := NewScheduler(1)
	s.Spawn("p", func(p *Proc) {
		p.Advance(-time.Second)
		if p.Now() != 0 {
			t.Errorf("now = %v after negative advance", p.Now())
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []int {
		s := NewScheduler(7)
		var order []int
		// Same timestamp: must run in scheduling order.
		for i := 0; i < 10; i++ {
			i := i
			s.At(100, func() { order = append(order, i) })
		}
		s.At(50, func() { order = append(order, -1) })
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if len(a) != 11 || a[0] != -1 {
		t.Fatalf("order = %v", a)
	}
	for i := 1; i < len(a); i++ {
		if a[i] != i-1 {
			t.Fatalf("same-time events out of scheduling order: %v", a)
		}
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order: %v vs %v", a, b)
		}
	}
}

func TestAtClampsToPast(t *testing.T) {
	s := NewScheduler(1)
	var fired Time
	s.At(100, func() {
		s.At(10, func() { fired = s.Now() }) // in the past: clamp to 100
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Fatalf("past event fired at %v, want 100", fired)
	}
}

func TestInterleavingTwoProcs(t *testing.T) {
	s := NewScheduler(1)
	var trace []string
	log := func(p *Proc, what string) {
		trace = append(trace, fmt.Sprintf("%s@%d:%s", p.Name(), p.Now(), what))
	}
	s.Spawn("a", func(p *Proc) {
		log(p, "start")
		p.Advance(10)
		log(p, "mid")
		p.Advance(20)
		log(p, "end") // t=30
	})
	s.Spawn("b", func(p *Proc) {
		log(p, "start")
		p.Advance(15)
		log(p, "end") // t=15
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@0:start", "b@0:start", "a@10:mid", "b@15:end", "a@30:end"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace[%d] = %s, want %s (full: %v)", i, trace[i], want[i], trace)
		}
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	s := NewScheduler(1)
	c := NewCond(s)
	var woke []string
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		s.Spawn(name, func(p *Proc) {
			c.Wait(p)
			woke = append(woke, name)
		})
	}
	s.At(10, func() { c.Signal() })
	s.At(20, func() { c.Signal() })
	s.At(30, func() { c.Signal() })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 || woke[0] != "p0" || woke[1] != "p1" || woke[2] != "p2" {
		t.Fatalf("wake order = %v", woke)
	}
}

func TestCondBroadcast(t *testing.T) {
	s := NewScheduler(1)
	c := NewCond(s)
	n := 0
	for i := 0; i < 5; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			c.Wait(p)
			n++
		})
	}
	s.At(5, func() {
		if c.Waiting() != 5 {
			t.Errorf("Waiting = %d, want 5", c.Waiting())
		}
		c.Broadcast()
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("woke %d, want 5", n)
	}
}

func TestCondSignalEmptyIsNoop(t *testing.T) {
	s := NewScheduler(1)
	c := NewCond(s)
	s.At(1, func() { c.Signal(); c.Broadcast() })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := NewScheduler(1)
	c := NewCond(s)
	s.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	_, err := s.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck" {
		t.Fatalf("parked = %v", de.Parked)
	}
}

// use occupies f for d and returns at the completion time: UseAsync's
// blocking form, for a proc.
func use(f *FIFO, p *Proc, d Duration) { p.Advance(Duration(f.ReserveAt(p.Now(), d) - p.Now())) }

func TestFIFOSerializes(t *testing.T) {
	s := NewScheduler(1)
	f := NewFIFO(s, "link")
	var ends []Time
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			use(f, p, 10)
			ends = append(ends, p.Now())
		})
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	want := []Time{10, 20, 30}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestFIFOUseAsync(t *testing.T) {
	s := NewScheduler(1)
	f := NewFIFO(s, "dma")
	var done []Time
	s.At(0, func() {
		f.UseAsync(10, func() { done = append(done, s.Now()) })
		end := f.UseAsync(5, func() { done = append(done, s.Now()) })
		if end != 15 {
			t.Errorf("second completion = %v, want 15", end)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || done[0] != 10 || done[1] != 15 {
		t.Fatalf("done = %v", done)
	}
}

func TestFIFOIdleThenReuse(t *testing.T) {
	s := NewScheduler(1)
	f := NewFIFO(s, "bus")
	var end Time
	s.Spawn("u", func(p *Proc) {
		use(f, p, 10) // 0..10
		p.Advance(100)
		use(f, p, 10) // idle gap: 110..120
		end = p.Now()
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 120 {
		t.Fatalf("end = %v, want 120", end)
	}
}

func TestSpawnFromProc(t *testing.T) {
	s := NewScheduler(1)
	var childEnd Time
	s.Spawn("parent", func(p *Proc) {
		p.Advance(10)
		s.Spawn("child", func(q *Proc) {
			q.Advance(5)
			childEnd = q.Now()
		})
		p.Advance(100)
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != 15 {
		t.Fatalf("child end = %v, want 15", childEnd)
	}
}

func TestYieldLetsSameTimeEventsRun(t *testing.T) {
	s := NewScheduler(1)
	var order []string
	s.Spawn("p", func(p *Proc) {
		s.At(p.Now(), func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc")
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Fatalf("order = %v", order)
	}
}

func TestMaxEventsLimit(t *testing.T) {
	s := NewScheduler(1)
	s.MaxEvents = 100
	var loop func()
	loop = func() { s.After(1, loop) }
	s.At(0, loop)
	_, err := s.Run()
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want LimitError", err)
	}
}

func TestMaxTimeLimit(t *testing.T) {
	s := NewScheduler(1)
	s.MaxTime = 50
	var loop func()
	loop = func() { s.After(10, loop) }
	s.At(0, loop)
	_, err := s.Run()
	var le *LimitError
	if !errors.As(err, &le) || le.What != "time" {
		t.Fatalf("err = %v, want time LimitError", err)
	}
}

// limitCase is a runaway proc body and the limit error it must die with:
// the event count and time are those of the plain kernel, and the shortcuts
// may not move them — a proc that keeps running ahead never returns to the
// driver, so run-ahead itself has to notice the limit and park.
type limitCase struct {
	name   string
	body   func(p *Proc)
	events uint64
	at     Time
}

// checkLimit runs the case with the shortcuts off, then on, and checks
// both runs end with exactly the expected error.
func checkLimit(t *testing.T, c limitCase, what string, run func(slow bool, body func(p *Proc)) error) {
	t.Helper()
	for _, slow := range []bool{true, false} {
		err := run(slow, c.body)
		var le *LimitError
		if !errors.As(err, &le) {
			t.Fatalf("%s (plain kernel %v): err = %v, want LimitError", c.name, slow, err)
		}
		if le.What != what || le.Events != c.events || le.At != c.at {
			t.Fatalf("%s (plain kernel %v): %s limit after %d events at %v, want %s after %d at %v",
				c.name, slow, le.What, le.Events, le.At, what, c.events, c.at)
		}
	}
}

// The spawn is event 1, so the limit of 100 is passed by the proc's 100th
// wakeup, which is where the plain kernel stops too.
var maxEventsCases = []limitCase{
	{"yield", func(p *Proc) {
		for {
			p.Yield()
		}
	}, 101, 0},
	{"advance0", func(p *Proc) {
		for {
			p.Advance(0)
		}
	}, 101, 0},
	{"advance7", func(p *Proc) {
		for {
			p.Advance(7)
		}
	}, 101, 700},
}

func TestRunAheadHonoursMaxEvents(t *testing.T) {
	for _, c := range maxEventsCases {
		checkLimit(t, c, "event", func(slow bool, body func(p *Proc)) error {
			s := NewScheduler(1)
			s.MaxEvents, s.noFastPath = 100, slow
			s.Spawn("runaway", body)
			_, err := s.Run()
			s.Shutdown()
			return err
		})
	}
}

func TestRunAheadHonoursMaxTime(t *testing.T) {
	// Wakeups at 7, 14, ... : the eighth, at 56, is the first past 50.
	c := limitCase{"advance7", func(p *Proc) {
		for {
			p.Advance(7)
		}
	}, 9, 56}
	checkLimit(t, c, "time", func(slow bool, body func(p *Proc)) error {
		s := NewScheduler(1)
		s.MaxTime, s.noFastPath = 50, slow
		s.Spawn("runaway", body)
		_, err := s.Run()
		s.Shutdown()
		return err
	})
}

func TestRunReturnsFinalTime(t *testing.T) {
	s := NewScheduler(1)
	s.Spawn("p", func(p *Proc) { p.Advance(12345) })
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 12345 {
		t.Fatalf("end = %v, want 12345", end)
	}
}

func TestDeterministicRand(t *testing.T) {
	draw := func() []int64 {
		s := NewScheduler(42)
		var out []int64
		s.At(0, func() {
			for i := 0; i < 5; i++ {
				out = append(out, s.Rand().Int63())
			}
		})
		s.Run()
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rand not deterministic: %v vs %v", a, b)
		}
	}
}

// Property: for any set of FIFO jobs submitted at time zero, the completions
// are exactly the prefix sums of the durations (pure serialization).
func TestFIFOPrefixSumProperty(t *testing.T) {
	prop := func(durs []uint16) bool {
		if len(durs) > 50 {
			durs = durs[:50]
		}
		s := NewScheduler(1)
		f := NewFIFO(s, "r")
		got := make([]Time, 0, len(durs))
		s.At(0, func() {
			for _, d := range durs {
				f.UseAsync(Duration(d), nil)
			}
		})
		s.Run()
		var sum Time
		for _, d := range durs {
			sum += Time(d)
		}
		_ = got
		return f.ReserveAt(0, 0) == sum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: two interleaved advancing procs always finish at the sum of
// their own advances, independent of the other proc.
func TestAdvanceIndependenceProperty(t *testing.T) {
	prop := func(a, b []uint16) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		s := NewScheduler(1)
		var endA, endB Time
		s.Spawn("a", func(p *Proc) {
			for _, d := range a {
				p.Advance(Duration(d))
			}
			endA = p.Now()
		})
		s.Spawn("b", func(p *Proc) {
			for _, d := range b {
				p.Advance(Duration(d))
			}
			endB = p.Now()
		})
		if _, err := s.Run(); err != nil {
			return false
		}
		var sa, sb Time
		for _, d := range a {
			sa += Time(d)
		}
		for _, d := range b {
			sb += Time(d)
		}
		return endA == sa && endB == sb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeMicroseconds(t *testing.T) {
	if us := Time(1500).Microseconds(); us != 1.5 {
		t.Fatalf("Microseconds = %v, want 1.5", us)
	}
	if s := Time(2500).String(); s != "2.500us" {
		t.Fatalf("String = %q", s)
	}
	if d := Time(42).Duration(); d != 42 {
		t.Fatalf("Duration = %v", d)
	}
}

func TestShutdownAfterCleanRunIsNoop(t *testing.T) {
	s := NewScheduler(1)
	s.Spawn("p", func(p *Proc) { p.Advance(10) })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.Shutdown() // nothing parked: must not hang
}
