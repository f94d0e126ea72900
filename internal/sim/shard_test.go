package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"
)

// --- basic lane mechanics ---

func TestShardSingleLaneMatchesScheduler(t *testing.T) {
	// The same two-proc program on a standalone scheduler and on a 1-lane
	// shard must produce identical timelines.
	var traces [2][]string
	run := func(idx int, s *Scheduler, drive func() (Time, error)) {
		log := func(p *Proc, what string) {
			traces[idx] = append(traces[idx], fmt.Sprintf("%s@%d:%s", p.Name(), p.Now(), what))
		}
		s.Spawn("a", func(p *Proc) {
			log(p, "start")
			p.Advance(10)
			log(p, "mid")
			p.Advance(20)
			log(p, "end")
		})
		s.Spawn("b", func(p *Proc) {
			log(p, "start")
			p.Advance(15)
			log(p, "end")
		})
		if _, err := drive(); err != nil {
			t.Fatal(err)
		}
	}
	s := NewScheduler(1)
	run(0, s, s.Run)
	sh := NewShard(1, 1, time.Microsecond)
	run(1, sh.Lane(0), sh.Run)
	if got, want := strings.Join(traces[1], " "), strings.Join(traces[0], " "); got != want {
		t.Fatalf("lane trace %q != scheduler trace %q", got, want)
	}
}

func TestShardLaneYieldOrdersSameInstantEvents(t *testing.T) {
	// Same-instant Yield/event ordering must hold under the epoch loop too:
	// an event queued before the Yield runs first.
	sh := NewShard(1, 2, time.Microsecond)
	ln := sh.Lane(1)
	var order []string
	ln.Spawn("p", func(p *Proc) {
		ln.At(p.Now(), func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc")
	})
	if _, err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Fatalf("order = %v", order)
	}
}

func TestShardRouteCrossLane(t *testing.T) {
	sh := NewShard(1, 2, 100*time.Nanosecond)
	var got Time
	var gotLane int
	sh.Lane(0).Spawn("src", func(p *Proc) {
		p.Advance(40)
		p.s.RouteAfter(1, 100, func() {
			got = sh.Lane(1).Now()
			gotLane = 1
		})
		p.Advance(10)
	})
	if _, err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 140 || gotLane != 1 {
		t.Fatalf("delivery at %v on lane %d, want 140 on lane 1", got, gotLane)
	}
	st := sh.Stats()
	if st.Routed != 1 || st.MailboxHighWater != 1 {
		t.Fatalf("stats = %+v, want Routed=1 HighWater=1", st)
	}
}

// A Route made before Run lands at its own time: Run merges it before the
// first epoch, so it runs between lane 1's events at 0 and 900 ns rather
// than at the first barrier, after both.
func TestShardRouteBeforeRunLandsOnTime(t *testing.T) {
	sh := NewShard(1, 2, time.Microsecond)
	dst := sh.Lane(1)
	var got []Time
	note := func() { got = append(got, dst.Now()) }
	dst.At(0, note)
	dst.At(900, note)
	sh.Lane(0).Route(1, 500, note)
	if _, err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []Time{0, 500, 900}) {
		t.Fatalf("lane 1 ran its events at %v, want [0 500 900]", got)
	}
	if st := sh.Stats(); st.Routed != 1 {
		t.Fatalf("stats = %+v, want Routed=1", st)
	}
}

func TestShardRouteSameLaneIsLocal(t *testing.T) {
	sh := NewShard(1, 2, 100*time.Nanosecond)
	fired := false
	// Same-lane routes bypass the mailbox entirely, so sub-lookahead
	// delays are fine (node-local hops are not bounded by the lookahead).
	sh.Lane(0).At(0, func() {
		sh.Lane(0).RouteAfter(0, 5, func() { fired = true })
	})
	if _, err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("same-lane route not delivered")
	}
	if sh.Stats().Routed != 0 {
		t.Fatalf("same-lane route counted as cross-lane: %+v", sh.Stats())
	}
}

func TestStandaloneRouteDegradesToAt(t *testing.T) {
	s := NewScheduler(1)
	fired := Time(-1)
	s.At(0, func() { s.RouteAfter(7, 10, func() { fired = s.Now() }) })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Fatalf("fired = %v, want 10", fired)
	}
}

func TestShardLookaheadViolationPanics(t *testing.T) {
	sh := NewShard(1, 2, 100*time.Nanosecond)
	sh.Lane(0).At(0, func() {
		sh.Lane(0).RouteAfter(1, 10, func() {}) // below the 100ns lookahead
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected lookahead-violation panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "lookahead violation") {
			t.Fatalf("panic = %v", r)
		}
	}()
	sh.Run()
}

// --- limits and teardown ---

func TestShardMaxEventsLimit(t *testing.T) {
	sh := NewShard(1, 2, time.Microsecond)
	sh.MaxEvents = 100
	var loop func()
	ln := sh.Lane(0)
	loop = func() { ln.After(1, loop) }
	ln.At(0, loop)
	_, err := sh.Run()
	var le *LimitError
	if !errors.As(err, &le) || le.What != "event" {
		t.Fatalf("err = %v, want event LimitError", err)
	}
}

func TestShardMaxTimeLimit(t *testing.T) {
	sh := NewShard(1, 2, time.Microsecond)
	sh.MaxTime = 50_000
	var loop func()
	ln := sh.Lane(1)
	loop = func() { ln.After(10_000, loop) }
	ln.At(0, loop)
	_, err := sh.Run()
	var le *LimitError
	if !errors.As(err, &le) || le.What != "time" {
		t.Fatalf("err = %v, want time LimitError", err)
	}
}

// A lane's share of the event limit is enforced inside its window, where
// run-ahead never returns to runWindow: the same cases as on a standalone
// scheduler must stop at the same event.
func TestShardRunAheadHonoursMaxEvents(t *testing.T) {
	for _, c := range maxEventsCases {
		checkLimit(t, c, "event", func(slow bool, body func(p *Proc)) error {
			sh := NewShard(1, 2, time.Microsecond)
			sh.MaxEvents = 100
			sh.Lane(0).noFastPath, sh.Lane(1).noFastPath = slow, slow
			sh.Lane(0).Spawn("runaway", body)
			_, err := sh.Run()
			sh.Shutdown()
			return err
		})
	}
}

// The time limit is applied between epochs, so what run-ahead must honour
// is the window: a wakeup at or past the horizon parks, and the overrun is
// reported at the first epoch that starts past the limit.
func TestShardRunAheadHonoursMaxTime(t *testing.T) {
	// 1 µs windows of 300 ns steps: each epoch runs four events and the
	// epochs start at 0, 1200, 2400, 3600 and 4800; 6000 is the first start
	// past 5000.
	c := limitCase{"advance300", func(p *Proc) {
		for {
			p.Advance(300)
		}
	}, 20, 6000}
	checkLimit(t, c, "time", func(slow bool, body func(p *Proc)) error {
		sh := NewShard(1, 2, time.Microsecond)
		sh.MaxTime = 5000
		sh.Lane(0).noFastPath, sh.Lane(1).noFastPath = slow, slow
		sh.Lane(1).Spawn("runaway", body)
		_, err := sh.Run()
		sh.Shutdown()
		return err
	})
}

func TestShardDeadlockDetected(t *testing.T) {
	sh := NewShard(1, 2, time.Microsecond)
	for i := 0; i < 2; i++ {
		ln := sh.Lane(i)
		c := NewCond(ln)
		ln.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) { c.Wait(p) })
	}
	_, err := sh.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 2 || de.Parked[0] != "stuck0" || de.Parked[1] != "stuck1" {
		t.Fatalf("parked = %v", de.Parked)
	}
	sh.Shutdown()
}

// --- allocation-free scheduling ---

// Intra-lane event scheduling must be allocation-free in steady state:
// after pool warmup, Advance (schedule + coroutine dispatch) and FIFO
// reservations allocate nothing, on both kernels. The FIFO completion lands
// before each wakeup, so every Advance here parks (TestFastPathsAllocFree
// covers the ones that do not).
func TestLaneSchedulingAllocFree(t *testing.T) {
	measure := func(s *Scheduler, drive func() (Time, error)) uint64 {
		f := NewFIFO(s, "link")
		var delta uint64
		freed := func() {}
		s.Spawn("hot", func(p *Proc) {
			for i := 0; i < 1000; i++ { // warm the event pool and heap
				f.UseAsync(1, freed)
				p.Advance(10)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < 5000; i++ {
				f.UseAsync(1, freed)
				p.Advance(10)
			}
			runtime.ReadMemStats(&m1)
			delta = m1.Mallocs - m0.Mallocs
		})
		if _, err := drive(); err != nil {
			t.Fatal(err)
		}
		return delta
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// On one P, as testing.AllocsPerRun measures: the runtime's own work
	// after a GC or a stop of the world (the scavenger re-arming its timer,
	// a new M for an idle P) then cannot allocate inside the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	t.Run("lane", func(t *testing.T) {
		sh := NewShard(1, 1, time.Microsecond)
		if d := measure(sh.Lane(0), sh.Run); d != 0 {
			t.Fatalf("lane steady-state scheduling allocated %d times", d)
		}
	})
	t.Run("scheduler", func(t *testing.T) {
		s := NewScheduler(1)
		if d := measure(s, s.Run); d != 0 {
			t.Fatalf("scheduler steady-state scheduling allocated %d times", d)
		}
	})
}

// A lane's random source is built on its first draw, and the stream is
// rand.New(rand.NewSource(seed+i))'s whether that draw comes while the
// world is built or from a proc mid-run; a standalone scheduler's is its
// seed's.
func TestLaneRandSeededOnFirstDraw(t *testing.T) {
	const seed, lanes = 5, 4
	draw := func(r *rand.Rand) [3]int64 { return [3]int64{r.Int63(), r.Int63(), r.Int63()} }
	check := func(what string, got [3]int64, seed int64) {
		if want := draw(rand.New(rand.NewSource(seed))); got != want {
			t.Errorf("%s: first draws %v, rand.NewSource(%d) gives %v", what, got, seed, want)
		}
	}
	sh := NewShard(seed, lanes, time.Microsecond)
	var got [lanes][3]int64
	got[0] = draw(sh.Lane(0).Rand())
	for i := 1; i < lanes; i++ {
		ln := sh.Lane(i)
		ln.Spawn("p", func(p *Proc) {
			p.Advance(Duration(10 * i))
			got[i] = draw(ln.Rand())
		})
	}
	if _, err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		check(fmt.Sprintf("lane %d", i), g, seed+int64(i))
	}
	check("scheduler", draw(NewScheduler(seed).Rand()), seed)
}

// Building a wide shard costs the lanes, not a random source each (4.9 KB
// apiece, 5 MB at 1 024 lanes): only CSMA/CD ever draws.
func TestShardBuildAllocatesNoRandSource(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sh := NewShard(1, 1024, time.Microsecond)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("NewShard(1, 1024, 1µs) allocated %d bytes, want < 1 MB", got)
	}
	runtime.KeepAlive(sh)
}

// The two shortcuts allocate nothing: a run-ahead Advance touches three
// counters, and a same-instant wakeup links a pooled event onto the
// intrusive queue.
func TestFastPathsAllocFree(t *testing.T) {
	if plainKernel {
		t.Skip("the plain kernel (plainkernel build tag) takes none of the shortcuts this test pins")
	}
	for _, k := range kernels[:2] { // one proc set: standalone and one lane
		t.Run(k.name+"/run-ahead", func(t *testing.T) {
			s, run, _ := newTestKernel(k.lanes, 0)
			var allocs float64
			var events uint64
			parks := 0
			s.Spawn("alone", func(p *Proc) {
				// Count the proc's parks: an Advance that did not run
				// ahead scheduled its wakeup on the heap and parked.
				yield := p.yieldTo
				p.yieldTo = func(v struct{}) bool { parks++; return yield(v) }
				// 501 ns in all: inside the lane's first 1 µs window.
				allocs = testing.AllocsPerRun(500, func() { p.Advance(1) })
				events = s.Events()
			})
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Fatalf("run-ahead Advance allocated %v times per call", allocs)
			}
			// Spawn (same-instant), then 501 wakeups: all counted, none of
			// them ever pushed on the heap.
			if events != 502 || parks != 0 || s.root != nil {
				t.Fatalf("%d events, %d parks: the proc did not run ahead", events, parks)
			}
		})
		t.Run(k.name+"/same-instant", func(t *testing.T) {
			s, run, _ := newTestKernel(k.lanes, 0)
			ping, pong := NewCond(s), NewCond(s)
			done := false
			// Sampled right after each Signal, while its wakeup is queued.
			heapUsed := false
			s.Spawn("echo", func(p *Proc) {
				for ping.Wait(p); !done; ping.Wait(p) {
					pong.Signal()
					heapUsed = heapUsed || s.root != nil
				}
			})
			var allocs float64
			s.Spawn("caller", func(p *Proc) {
				allocs = testing.AllocsPerRun(1000, func() {
					ping.Signal()
					heapUsed = heapUsed || s.root != nil
					pong.Wait(p)
				})
				done = true
				ping.Signal()
			})
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Fatalf("same-instant Signal allocated %v times per handoff", allocs)
			}
			if heapUsed {
				t.Fatal("a wakeup was on the heap: the wakeups did not use the same-instant queue")
			}
		})
		t.Run(k.name+"/lock-step", func(t *testing.T) {
			// 64 procs wake at every microsecond: each round's wakeups
			// chain behind one heap entry, so the heap holds the round
			// being run and the next one, never a slot per proc.
			const procs, warm, rounds = 64, 10, 100
			s, run, _ := newTestKernel(k.lanes, 0)
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var m0, m1 runtime.MemStats
			depth := 0
			for i := 0; i < procs; i++ {
				s.Spawn(fmt.Sprint("p", i), func(p *Proc) {
					for r := 0; r < warm+rounds; r++ {
						if i == 0 && r == warm {
							runtime.ReadMemStats(&m0)
						}
						depth = max(depth, heapHeads(s.root))
						p.Advance(time.Microsecond)
					}
					if i == 0 {
						runtime.ReadMemStats(&m1)
					}
				})
			}
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
			if depth > 2 {
				t.Fatalf("heap held %d chain heads for two distinct instants", depth)
			}
			if d := m1.Mallocs - m0.Mallocs; d != 0 {
				t.Fatalf("%d rounds of %d lock-step Advances allocated %d times", rounds, procs, d)
			}
			if want := uint64(procs * (warm + rounds + 1)); s.Events() != want {
				t.Fatalf("%d events, want %d", s.Events(), want)
			}
		})
	}
}

// --- differential oracle ---

// diffMsg is one recorded delivery: virtual arrival time and payload.
type diffMsg struct {
	t       Time
	payload int
}

// runDiffProgram drives a fixed randomized messaging program — ranks
// advance by rank-seeded random spans and send lookahead-respecting
// messages round-robin while receivers block on conds until their quota
// arrives — and returns the per-channel delivery traces and per-rank
// finish times. The program is written once against the Route API and runs
// unchanged on the single-lane kernel (lanes=0) and on sharded kernels.
func runDiffProgram(t *testing.T, seed int64, ranks, lanes, msgs int, par bool) ([][]diffMsg, []Time) {
	t.Helper()
	const la = 100 * time.Nanosecond

	var scheds []*Scheduler
	var drive func() (Time, error)
	var shutdown func()
	laneOf := make([]int, ranks)
	if lanes == 0 {
		s := NewScheduler(seed)
		drive, shutdown = s.Run, s.Shutdown
		scheds = make([]*Scheduler, ranks)
		for i := range scheds {
			scheds[i] = s
		}
	} else {
		sh := NewShard(seed, lanes, la)
		sh.Parallel = par
		drive, shutdown = sh.Run, sh.Shutdown
		scheds = make([]*Scheduler, ranks)
		for i := range scheds {
			laneOf[i] = i % lanes
			scheds[i] = sh.Lane(laneOf[i])
		}
	}

	// Indexed [src*ranks+dst]: every channel (·,dst) is written only from
	// dst's lane (delivery context), and distinct channels occupy distinct
	// preallocated elements, so parallel lane execution stays race-free.
	traces := make([][]diffMsg, ranks*ranks)
	finish := make([]Time, ranks)
	conds := make([]*Cond, ranks)
	got := make([]int, ranks)
	for i := 0; i < ranks; i++ {
		conds[i] = NewCond(scheds[i])
	}
	for i := 0; i < ranks; i++ {
		i := i
		scheds[i].Spawn(fmt.Sprintf("send%d", i), func(p *Proc) {
			rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
			for k := 0; k < msgs; k++ {
				p.Advance(Duration(rng.Intn(50)))
				dst := (i + k + 1) % ranks
				payload := i*1_000_000 + k
				delay := la + Duration(rng.Intn(100))
				p.s.RouteAfter(laneOf[dst], delay, func() {
					ch := i*ranks + dst
					traces[ch] = append(traces[ch], diffMsg{scheds[dst].Now(), payload})
					got[dst]++
					conds[dst].Signal()
				})
			}
		})
		scheds[i].Spawn(fmt.Sprintf("recv%d", i), func(p *Proc) {
			for got[i] < msgs {
				conds[i].Wait(p)
			}
			finish[i] = p.Now()
		})
	}
	if _, err := drive(); err != nil {
		shutdown()
		t.Fatalf("drive: %v", err)
	}
	return traces, finish
}

// The shard kernel is a refactoring of the single-lane kernel, not a new
// model: the same program must produce identical per-channel delivery
// traces and identical per-rank finish times on the single-lane oracle, on
// 1..N-lane shards run sequentially, and on shards run with parallel lane
// goroutines.
func TestShardDifferentialAgainstSingleLane(t *testing.T) {
	const ranks, msgs = 12, 8
	for _, seed := range []int64{3, 17, 91} {
		wantTr, wantFin := runDiffProgram(t, seed, ranks, 0, msgs, false)
		for _, lanes := range []int{1, 3, 4, 12} {
			gotTr, gotFin := runDiffProgram(t, seed, ranks, lanes, msgs, false)
			for ch := range wantTr {
				want, gotC := wantTr[ch], gotTr[ch]
				if len(gotC) != len(want) {
					t.Fatalf("seed %d lanes %d ch %d: %d msgs, want %d", seed, lanes, ch, len(gotC), len(want))
				}
				for j := range want {
					if gotC[j] != want[j] {
						t.Fatalf("seed %d lanes %d ch %d msg %d: %+v, want %+v", seed, lanes, ch, j, gotC[j], want[j])
					}
				}
			}
			for r := range wantFin {
				if gotFin[r] != wantFin[r] {
					t.Fatalf("seed %d lanes %d rank %d: finish %v, want %v", seed, lanes, r, gotFin[r], wantFin[r])
				}
			}
		}
	}
}

// Sequential and parallel lane execution must be bit-identical: same
// per-channel traces, same finish times, and the same control-plane
// counters (epochs, routed envelopes).
func TestShardParallelBitIdentical(t *testing.T) {
	const ranks, lanes, msgs = 8, 4, 6
	for _, seed := range []int64{5, 23} {
		seqTr, seqFin := runDiffProgram(t, seed, ranks, lanes, msgs, false)
		parTr, parFin := runDiffProgram(t, seed, ranks, lanes, msgs, true)
		for ch := range seqTr {
			want, gotC := seqTr[ch], parTr[ch]
			if len(gotC) != len(want) {
				t.Fatalf("seed %d ch %d: par %d msgs, seq %d", seed, ch, len(gotC), len(want))
			}
			for j := range want {
				if gotC[j] != want[j] {
					t.Fatalf("seed %d ch %d msg %d: par %+v, seq %+v", seed, ch, j, gotC[j], want[j])
				}
			}
		}
		for r := range seqFin {
			if parFin[r] != seqFin[r] {
				t.Fatalf("seed %d rank %d: par finish %v, seq %v", seed, r, parFin[r], seqFin[r])
			}
		}
	}
}

func TestShardStatsAccounting(t *testing.T) {
	const ranks, lanes, msgs = 8, 4, 6
	sh := NewShard(9, lanes, 100*time.Nanosecond)
	for i := 0; i < ranks; i++ {
		i := i
		ln := sh.Lane(i % lanes)
		ln.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k := 0; k < msgs; k++ {
				p.Advance(30)
				p.s.RouteAfter((i%lanes+1)%lanes, 150, func() {})
			}
		})
	}
	if _, err := sh.Run(); err != nil {
		t.Fatal(err)
	}
	st := sh.Stats()
	if st.Lanes != lanes {
		t.Fatalf("Lanes = %d", st.Lanes)
	}
	if st.Routed != uint64(ranks*msgs) {
		t.Fatalf("Routed = %d, want %d", st.Routed, ranks*msgs)
	}
	if st.Epochs == 0 || st.MailboxHighWater == 0 {
		t.Fatalf("stats not counted: %+v", st)
	}
	var sum uint64
	for _, n := range st.LaneEvents {
		sum += n
	}
	if sum != st.Events || sum != sh.Events() {
		t.Fatalf("LaneEvents sum %d, Events %d, sh.Events %d", sum, st.Events, sh.Events())
	}
}
