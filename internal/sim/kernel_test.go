package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// kernels lists every way the one kernel is driven: a standalone Scheduler
// under its own Run, and shard lanes — one, and several — under the epoch
// loop. Proc lifecycle behavior must not depend on the driver, so the tests
// and benchmarks below run over the whole table.
var kernels = []struct {
	name  string
	lanes int // 0: standalone scheduler
}{
	{"scheduler", 0},
	{"shard-1lane", 1},
	{"shard", 4},
}

// testNodes is the world size the table tests place procs over: with the
// 4-lane shard every lane gets one node, and the last node is off lane 0.
const testNodes = 4

// newTestKernel builds one table entry: the root scheduler (place procs
// with root.Node(i, testNodes)) and its driver's Run and Shutdown.
func newTestKernel(lanes int, maxEvents uint64) (root *Scheduler, run func() (Time, error), shutdown func()) {
	if lanes == 0 {
		s := NewScheduler(1)
		s.MaxEvents = maxEvents
		return s, s.Run, s.Shutdown
	}
	sh := NewShard(1, lanes, time.Microsecond)
	sh.MaxEvents = maxEvents
	return sh.Lane(0), sh.Run, sh.Shutdown
}

// settleGoroutines waits for exited goroutines to be reaped and reports
// the count. An unwinding goroutine exits on its own schedule — under
// -race on a loaded machine well after any number of Gosched calls — so
// the wait is bounded by a deadline, not a yield count.
func settleGoroutines(baseline int) int {
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func TestNodePlacement(t *testing.T) {
	s := NewScheduler(1)
	if s.Node(3, 8) != s || s.LaneID() != 0 || s.Lookahead() != 0 {
		t.Fatalf("standalone: Node = %p (want %p), LaneID = %d, Lookahead = %v", s.Node(3, 8), s, s.LaneID(), s.Lookahead())
	}
	sh := NewShard(1, 3, time.Microsecond)
	// The block map i*lanes/n, asked from any lane.
	for i, want := range []int{0, 0, 0, 1, 1, 1, 2, 2} {
		got := sh.Lane(2).Node(i, 8)
		if got != sh.Lane(want) || got.LaneID() != want {
			t.Fatalf("node %d of 8 on lane %d, want %d", i, got.LaneID(), want)
		}
	}
	if la := sh.Lane(1).Lookahead(); la != time.Microsecond {
		t.Fatalf("lane Lookahead = %v", la)
	}
	// NewKernel clamps lanes to nodes and only shards above one lane.
	if k := NewKernel(1, 1, 8, time.Microsecond, 7); k.Shard() != nil || k.MaxEvents != 7 {
		t.Fatalf("NewKernel(lanes=1) built a shard or lost the limit")
	}
	if k := NewKernel(1, 16, 4, time.Microsecond, 7); k.Shard().Lanes() != 4 || k.Shard().MaxEvents != 7 || k.LaneID() != 0 {
		t.Fatalf("NewKernel(lanes=16, nodes=4): %d lanes", k.Shard().Lanes())
	}
}

// A panic or runtime.Goexit (t.Fatal) inside a proc body must surface from
// Run on the goroutine that called it, and leave the kernel in a state
// Shutdown can reap: the other procs run no further user code and their
// coroutines are released.
func TestProcUnwindSurfacesFromRun(t *testing.T) {
	for _, k := range kernels {
		for _, how := range []string{"panic", "goexit"} {
			t.Run(k.name+"/"+how, func(t *testing.T) {
				before := runtime.NumGoroutine()
				root, run, shutdown := newTestKernel(k.lanes, 0)
				resumed := false
				for i := 0; i < testNodes; i++ {
					s := root.Node(i, testNodes)
					c := NewCond(s)
					s.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
						c.Wait(p)
						resumed = true
					})
				}
				root.Node(testNodes-1, testNodes).Spawn("bad", func(p *Proc) {
					p.Advance(10)
					if how == "panic" {
						panic("boom")
					}
					runtime.Goexit()
				})
				// Run on a goroutine of its own: Goexit ends its caller.
				var recovered any
				returned := false
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { recovered = recover() }()
					run()
					returned = true
				}()
				wg.Wait()
				if returned {
					t.Fatal("Run returned normally past a proc that unwound")
				}
				if how == "panic" && recovered != "boom" {
					t.Fatalf("recovered %v from Run's goroutine, want the proc's panic value", recovered)
				}
				if how == "goexit" && recovered != nil {
					t.Fatalf("Goexit surfaced as panic %v", recovered)
				}
				shutdown()
				shutdown() // idempotent
				if resumed {
					t.Fatal("parked proc resumed user code during Shutdown")
				}
				if g := settleGoroutines(before); g > before {
					t.Fatalf("goroutines leaked: %d before, %d after", before, g)
				}
			})
		}
	}
}

func TestShutdownReleasesParkedProcs(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for round := 0; round < 5; round++ {
				root, run, shutdown := newTestKernel(k.lanes, 0)
				resumed := false
				for i := 0; i < testNodes; i++ {
					s := root.Node(i, testNodes)
					c := NewCond(s)
					for j := 0; j < 10; j++ {
						s.Spawn(fmt.Sprintf("stuck%d.%d", i, j), func(p *Proc) {
							c.Wait(p)
							resumed = true
						})
					}
				}
				var de *DeadlockError
				if _, err := run(); !errors.As(err, &de) || len(de.Parked) != 10*testNodes {
					t.Fatalf("err = %v, want a deadlock naming %d procs", err, 10*testNodes)
				}
				shutdown()
				if resumed {
					t.Fatal("parked proc resumed user code during Shutdown")
				}
			}
			if g := settleGoroutines(before); g > before {
				t.Fatalf("goroutines leaked: %d before, %d after", before, g)
			}
		})
	}
}

// Procs that were spawned but never dispatched (the run hit a limit first)
// must be reaped by Shutdown without their bodies ever running.
func TestShutdownNeverDispatchedProcRunsNoUserCode(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			root, run, shutdown := newTestKernel(k.lanes, 2)
			s := root.Node(testNodes-1, testNodes)
			// Three same-scheduler events ahead of the spawn push it over its
			// budget before the spawn's dispatch event can run.
			for i := 0; i < 3; i++ {
				s.At(0, func() {})
			}
			ran := false
			s.Spawn("late", func(p *Proc) { ran = true })
			var le *LimitError
			if _, err := run(); !errors.As(err, &le) {
				t.Fatalf("err = %v, want LimitError", err)
			}
			shutdown()
			if ran {
				t.Fatal("never-dispatched proc body ran during Shutdown")
			}
			if g := settleGoroutines(before); g > before {
				t.Fatalf("goroutines leaked: %d before, %d after", before, g)
			}
		})
	}
}

// chargingRelay breaks the Relay contract: it charges its proc.
type chargingRelay struct{ p *Proc }

func (r chargingRelay) Relay() (Cat, Duration, Step) {
	r.p.Advance(5)
	return 0, 0, Decline
}

// A relay that charges its proc fails by name, on the plain kernel and
// with the shortcuts on, whether its charge would run ahead (silently
// moving the clock inside the relay) or park (yielding from the scheduler
// itself, which iter.Pull reports as "yield called again before next").
func TestRelayThatChargesPanicsByName(t *testing.T) {
	for _, shape := range []struct {
		name string
		body func(s *Scheduler, p *Proc)
	}{
		{"runs-ahead", func(s *Scheduler, p *Proc) { p.SpendThen(Match, 10, chargingRelay{p}) }},
		{"parks", func(s *Scheduler, p *Proc) {
			s.After(3, func() {})
			s.After(12, func() {})
			p.SpendThen(Match, 10, chargingRelay{p})
		}},
		{"cond-wake", func(s *Scheduler, p *Proc) {
			c := NewCond(s)
			s.After(3, c.Signal)
			c.WaitThen(p, chargingRelay{p})
		}},
	} {
		for _, slow := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/plain%v", shape.name, slow), func(t *testing.T) {
				s := NewScheduler(1)
				s.noFastPath = slow
				s.Spawn("victim", func(p *Proc) { shape.body(s, p) })
				got := func() (v any) {
					defer func() { v = recover() }()
					s.Run()
					return nil
				}()
				s.Shutdown()
				const want = `sim: proc "victim" charged 5ns inside a relay`
				if msg, _ := got.(string); !strings.HasPrefix(msg, want) {
					t.Fatalf("Run panicked with %v, want %q", got, want)
				}
			})
		}
	}
}

// stayChain is a SpendThen relay whose chain ends in a Cond wait: a charge,
// a Stay on c, signalled gap later, then a charge with More and one with
// Last, run at the wait's wake.
type stayChain struct {
	p    *Proc
	c    *Cond
	gap  Duration
	step int
}

func (r *stayChain) Relay() (Cat, Duration, Step) {
	r.step++
	switch r.step {
	case 1:
		return Match, 7, More
	case 2:
		r.c.Requeue(r.p)
		r.p.s.After(r.gap, r.c.Signal)
		return 0, 0, Stay
	case 3:
		return Copy, 11, More
	}
	return Sync, 13, Last
}

// A SpendThen chain that Stays turns into a wait: the time from the Stay
// to the proc's resumption is parked, less the charges after it, the Last
// one too. Spent, Parked and the finish time equal the plain kernel's,
// where the proc runs the relay itself and waits plainly at the Stay,
// whether the charges run ahead or park (a ticker keeps the queue busy).
func TestSpendThenEndingInWaitBooksParked(t *testing.T) {
	run := func(slow, ticker bool, gap Duration) (Ledger, Time, uint64) {
		s := NewScheduler(1)
		s.noFastPath = slow
		var l Ledger
		c := NewCond(s)
		var end Time
		s.Spawn("chain", func(p *Proc) {
			p.Ledger = &l
			p.Spend(Compute, 3)
			if !p.SpendThen(Overhead, 5, &stayChain{p: p, c: c, gap: gap}) {
				t.Error("SpendThen reported Decline, want Last")
			}
			p.Spend(Compute, 2)
			end = p.Now()
		})
		if ticker {
			s.Spawn("ticker", func(p *Proc) {
				for range 40 {
					p.Advance(3)
				}
			})
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return l, end, s.Dispatches()
	}
	for _, ticker := range []bool{false, true} {
		for _, gap := range []Duration{0, 40} {
			want, wantEnd, plain := run(true, ticker, gap)
			got, gotEnd, fast := run(false, ticker, gap)
			if got != want || gotEnd != wantEnd {
				t.Errorf("ticker %v, gap %v: spent %v parked %v, finish %v; plain kernel %v, %v, %v",
					ticker, gap, got.Spent, got.Spent[Parked], gotEnd, want.Spent, want.Spent[Parked], wantEnd)
			}
			if want.Spent[Parked] != gap || wantEnd != Time(3+5+7+gap+11+13+2) {
				t.Errorf("ticker %v, gap %v: plain kernel parked %v, finished at %v", ticker, gap, want.Spent[Parked], wantEnd)
			}
			if fast >= plain {
				t.Errorf("ticker %v, gap %v: %d dispatches, the plain kernel %d: the chain never ran in the proc's place", ticker, gap, fast, plain)
			}
		}
	}
}

// The event limit is exact on every driver: a run whose MaxEvents equals
// its event count finishes clean, and one fewer stops it with an event
// LimitError, on a shard as on a standalone scheduler (ROADMAP item 30:
// the shard's final check weakened from `>` to `>=` passed every test).
func TestEventLimitIsExact(t *testing.T) {
	run := func(lanes int, maxEvents uint64) (uint64, error) {
		root, run, shutdown := newTestKernel(lanes, maxEvents)
		defer shutdown()
		for i := 0; i < testNodes; i++ {
			root.Node(i, testNodes).Spawn(fmt.Sprint("p", i), func(p *Proc) {
				for j := 0; j < 20+i; j++ {
					p.Advance(Duration(1+i) * time.Microsecond)
				}
			})
		}
		_, err := run()
		if sh := root.Shard(); sh != nil {
			return sh.Events(), err
		}
		return root.Events(), err
	}
	for _, k := range kernels {
		n, err := run(k.lanes, 0)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if _, err := run(k.lanes, n); err != nil {
			t.Errorf("%s: MaxEvents = its %d events: %v, want a clean run", k.name, n, err)
		}
		var le *LimitError
		if _, err := run(k.lanes, n-1); !errors.As(err, &le) || le.What != "event" {
			t.Errorf("%s: MaxEvents = %d, one under its events: %v, want an event LimitError", k.name, n-1, err)
		}
	}
}
