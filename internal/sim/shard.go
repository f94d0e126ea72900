package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// Shard is the control plane that drives several Schedulers as one world:
// a set of per-node data-plane lanes (each a full Scheduler with its own
// event queue, proc set, and RNG stream) synchronized by a conservative
// lookahead barrier.
//
// Execution proceeds in epochs. Each epoch the control plane finds the
// earliest pending event time T0 across lanes and sets the horizon
// H = T0 + lookahead; every lane with an event before H then executes its
// events with t < H independently — sequentially or on parallel
// goroutines, the results are identical. Cross-lane effects are staged
// through Route into per-lane outboxes and merged at the epoch barrier.
// The merge is the determinism linchpin: envelopes are ordered by
// (t, srcLane, srcSeq) — the lane id breaks (time, seq) ties — and
// destination-local sequence numbers are assigned in that canonical order,
// so the run is bit-identical regardless of how lane execution
// interleaved.
//
// Safety requires every cross-lane delivery to land at or beyond the
// horizon of the epoch that sent it. Route enforces t >= H, which holds by
// construction whenever the model's minimum cross-lane latency is at least
// the shard's lookahead: a sender executing at now < H schedules delivery
// at now + δ with δ >= lookahead, and now >= T0 gives
// now + δ >= T0 + lookahead = H.
type Shard struct {
	lanes     []*Scheduler
	lookahead Time

	// Parallel selects pinned-worker epoch execution: min(GOMAXPROCS,
	// lanes) persistent workers, each owning a contiguous block of lanes,
	// woken once per epoch with the horizon and joined at the barrier. Off
	// by default: the sequential path is the determinism oracle for the
	// parallel one, and on a single core the worker pool degenerates to one
	// worker with only a channel handoff per epoch of overhead.
	Parallel bool

	// Limits guard against runaway models; zero means no limit. MaxEvents
	// bounds the total across lanes (checked at epoch granularity, and
	// per-lane within an epoch so a same-instant livelock still terminates).
	MaxEvents uint64
	MaxTime   Time

	scratch []*xmsg    // merge staging, reused across epochs
	stats   ShardStats // Events is the running total across lanes

	// The calendar: next[i] is lane i's pending() at every barrier, so an
	// epoch finds T0 and the lanes to run without touching the idle ones.
	// Run fills it; a lane's walk refreshes its entry after it runs, and
	// the merge refreshes each envelope's destination.
	next   []Time
	blocks []block // lane blocks, one per worker; one block when sequential

	// Pinned-worker pool (Parallel mode). Workers are started lazily by Run
	// and torn down on every return path; each owns one block of lanes and
	// touches nothing else during an epoch, so lane state needs no locks —
	// the work channel send and barrier wait provide the happens-before
	// edges for the control plane's reads between epochs.
	work    []chan Time
	barrier sync.WaitGroup
}

// block is one contiguous run of lanes, [lo, hi), walked by one goroutine
// per epoch, and what the walk found, for the control plane to read at the
// barrier.
type block struct {
	lo, hi int
	ran    int          // lanes that ran an event
	events uint64       // events they ran
	staged []*Scheduler // visited lanes that left envelopes in their outbox
}

// xmsg is a pooled cross-lane envelope: an event staged in a lane outbox
// until the epoch barrier merges it into the destination lane.
type xmsg struct {
	t       Time
	srcLane int
	srcSeq  uint64
	dst     int
	fn      func()
	next    *xmsg // freelist link while recycled
}

// ShardStats counts control-plane activity for Acct/trace reporting.
type ShardStats struct {
	Lanes            int
	Epochs           uint64   // lookahead windows executed
	Stalls           uint64   // lane-epochs that ran zero events
	Routed           uint64   // cross-lane envelopes merged
	MailboxHighWater int      // most envelopes staged at one barrier
	LaneEvents       []uint64 // events executed per lane
	Events           uint64   // total events across lanes
}

// NewShard builds a shard of n lanes with the given lookahead bound, which
// must be positive (it is the epoch width, and the model's minimum
// cross-lane latency must be at least this). Lane i's RNG stream is seeded
// seed+i so lanes draw independently and deterministically.
func NewShard(seed int64, n int, lookahead Duration) *Shard {
	if n < 1 {
		panic("sim: shard needs at least one lane")
	}
	if lookahead <= 0 {
		panic("sim: shard lookahead must be positive")
	}
	sh := &Shard{lanes: make([]*Scheduler, n), lookahead: Time(lookahead)}
	for i := range sh.lanes {
		ln := NewScheduler(seed + int64(i))
		ln.shard = sh
		ln.lane = int32(i)
		sh.lanes[i] = ln
	}
	return sh
}

// NewKernel returns the scheduler an n-node world is built on, chosen by
// the lane count its caller asked for: a standalone Scheduler for lanes <=
// 1, otherwise lane 0 of a Shard of min(lanes, nodes) lanes with the given
// lookahead (the model's minimum cross-node latency). maxEvents bounds the
// run either way. Models place node i with Node(i, nodes), and whoever
// runs the world drives Shard() when it is non-nil and the scheduler
// itself otherwise.
func NewKernel(seed int64, lanes, nodes int, lookahead Duration, maxEvents uint64) *Scheduler {
	if lanes <= 1 {
		s := NewScheduler(seed)
		s.MaxEvents = maxEvents
		return s
	}
	sh := NewShard(seed, min(lanes, nodes), lookahead)
	sh.MaxEvents = maxEvents
	return sh.Lane(0)
}

// Lanes reports the number of lanes.
func (sh *Shard) Lanes() int { return len(sh.lanes) }

// Lane reports lane i's scheduler, on which procs are spawned and media
// built. Everything reachable from a lane's procs must be lane-local;
// cross-lane effects go through Route.
func (sh *Shard) Lane(i int) *Scheduler { return sh.lanes[i] }

// Stats reports control-plane counters for the run so far.
func (sh *Shard) Stats() ShardStats {
	st := sh.stats
	st.Lanes = len(sh.lanes)
	st.LaneEvents = make([]uint64, len(sh.lanes))
	for i, ln := range sh.lanes {
		st.LaneEvents[i] = ln.nEvents
	}
	return st
}

// Events reports the total events executed across lanes.
func (sh *Shard) Events() uint64 { return sh.stats.Events }

// Dispatches reports the proc switches of all lanes (Scheduler.Dispatches).
func (sh *Shard) Dispatches() uint64 {
	var n uint64
	for _, ln := range sh.lanes {
		n += ln.dispatches
	}
	return n
}

// Now reports the shard's virtual time: the maximum across lanes (lanes
// whose queues ran dry lag until a merged event advances them).
func (sh *Shard) Now() Time {
	var t Time
	for _, ln := range sh.lanes {
		if ln.now > t {
			t = ln.now
		}
	}
	return t
}

// Route schedules fn at time t on lane dstLane. Called from the sending
// lane's context (proc body or event callback). Same-lane routes — and any
// route on a standalone scheduler — degrade to At. Cross-lane routes are
// staged in the sender's outbox and merged at the epoch barrier; t must be
// at or beyond the current horizon (guaranteed when the modeled latency is
// >= the shard lookahead), otherwise Route panics — delivering into the
// current window would break the conservative synchronization contract.
func (s *Scheduler) Route(dstLane int, t Time, fn func()) {
	sh := s.shard
	if sh == nil || dstLane == int(s.lane) {
		s.At(t, fn)
		return
	}
	if t < s.window {
		panic(fmt.Sprintf("sim: lookahead violation: lane %d routing to lane %d at %v, inside horizon %v (cross-lane latency below shard lookahead %v)",
			s.lane, dstLane, t, s.window, Duration(sh.lookahead)))
	}
	s.xseq++
	m := s.allocX()
	m.t, m.srcLane, m.srcSeq, m.dst, m.fn = t, int(s.lane), s.xseq, dstLane, fn
	s.outbox = append(s.outbox, m)
}

// RouteAfter schedules fn on lane dstLane, d from now.
func (s *Scheduler) RouteAfter(dstLane int, d Duration, fn func()) {
	s.Route(dstLane, s.now+Time(d), fn)
}

func (s *Scheduler) allocX() *xmsg {
	m := s.xfree
	if m == nil {
		return &xmsg{}
	}
	s.xfree = m.next
	m.next = nil
	return m
}

func (s *Scheduler) freeX(m *xmsg) {
	m.fn = nil
	m.next = s.xfree
	s.xfree = m
}

// runWindow executes the lane's events strictly before horizon h, stopping
// early if the lane alone exceeds the shard's event limit (see
// overEventLimit). It reports how many events ran.
func (s *Scheduler) runWindow(h Time) uint64 {
	s.window = h
	n := s.nEvents
	// The limit check mirrors the global one (strictly greater): a lane
	// halted here has already pushed the global total over the limit, so Run
	// cannot spin on a capped lane without returning the LimitError.
	for s.pending() < h && !s.overEventLimit() {
		s.runEvent(s.pop())
	}
	return s.nEvents - n
}

// walk runs the epoch ending at horizon h on b's lanes: each lane whose
// calendar entry is before h runs its window and has its entry refreshed.
// It writes only b and b's entries of the calendar. The plain kernel
// (noFastPath, this package's tests) runs every lane, as an oracle for
// the calendar.
func (sh *Shard) walk(b *block, h Time) {
	all := sh.lanes[0].noFastPath
	lanes, next := sh.lanes[b.lo:b.hi], sh.next[b.lo:b.hi]
	ran, events, staged := 0, uint64(0), b.staged[:0]
	for i, t := range next {
		if t >= h && !all {
			continue
		}
		ln := lanes[i]
		if n := ln.runWindow(h); n != 0 {
			ran++
			events += n
		}
		if len(ln.outbox) != 0 {
			staged = append(staged, ln)
		}
		next[i] = ln.pending()
	}
	b.ran, b.events, b.staged = ran, events, staged
}

// scan refreshes every lane's calendar entry from its queue.
func (sh *Shard) scan() {
	for i, ln := range sh.lanes {
		sh.next[i] = ln.pending()
	}
}

// merge drains the outboxes the blocks staged into the destination lanes
// in canonical (t, srcLane, srcSeq) order, assigning destination-local
// sequence numbers in that order so downstream execution is bit-identical
// however the lanes were executed, and refreshes each destination's
// calendar entry. Runs in control-plane context (the barrier), so touching
// every lane is safe.
func (sh *Shard) merge() {
	sc := sh.scratch[:0]
	for i := range sh.blocks {
		for _, ln := range sh.blocks[i].staged {
			sc = append(sc, ln.outbox...)
			ln.outbox = ln.outbox[:0]
		}
	}
	if len(sc) > sh.stats.MailboxHighWater {
		sh.stats.MailboxHighWater = len(sc)
	}
	sh.stats.Routed += uint64(len(sc))
	// (t, srcLane, srcSeq) is unique per message, so an unstable sort
	// yields one order.
	slices.SortFunc(sc, func(a, b *xmsg) int {
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		if a.srcLane != b.srcLane {
			return cmp.Compare(a.srcLane, b.srcLane)
		}
		return cmp.Compare(a.srcSeq, b.srcSeq)
	})
	for _, m := range sc {
		dst := sh.lanes[m.dst]
		dst.schedule(m.t, m.fn, nil)
		sh.next[m.dst] = dst.pending()
		sh.lanes[m.srcLane].freeX(m)
	}
	sh.scratch = sc[:0]
}

// startWorkers splits the lanes into one block per worker and spins up the
// pinned worker pool. MaxEvents is read by workers and must not change
// while they run.
func (sh *Shard) startWorkers() {
	n := len(sh.lanes)
	w := min(runtime.GOMAXPROCS(0), n)
	sh.blocks, sh.work = make([]block, w), make([]chan Time, w)
	for i := range sh.work {
		ch := make(chan Time, 1)
		sh.work[i] = ch
		b := &sh.blocks[i]
		b.lo, b.hi = i*n/w, (i+1)*n/w
		go func() {
			for h := range ch {
				sh.walk(b, h)
				sh.barrier.Done()
			}
		}()
	}
}

// stopWorkers tears the pool down (idempotent).
func (sh *Shard) stopWorkers() {
	for _, ch := range sh.work {
		close(ch)
	}
	sh.work = nil
}

// Run drives all lanes to completion under the epoch/lookahead barrier and
// returns the final virtual time. Deadlock (all queues and outboxes
// drained with procs still parked) and limit overruns surface exactly as
// from Scheduler.Run, as *DeadlockError / *LimitError.
//
// Run first merges the envelopes Route staged before it, so each lands
// on its own time, then fills the calendar once, covering whatever Spawn,
// At and Route did before it.
func (sh *Shard) Run() (Time, error) {
	n := len(sh.lanes)
	b := block{hi: n}
	for _, ln := range sh.lanes {
		if len(ln.outbox) != 0 {
			b.staged = append(b.staged, ln)
		}
	}
	sh.blocks, sh.next = []block{b}, make([]Time, n)
	sh.merge()
	sh.scan()
	t0 := slices.Min(sh.next)
	if sh.Parallel && n > 1 && sh.work == nil {
		sh.startWorkers()
		defer sh.stopWorkers()
	}
	plain := sh.lanes[0].noFastPath
	for {
		if t0 == idle {
			var names []string
			for _, ln := range sh.lanes {
				for p := range ln.procs {
					names = append(names, p.name)
				}
			}
			if len(names) != 0 {
				sort.Strings(names)
				return sh.Now(), &DeadlockError{At: sh.Now(), Parked: names}
			}
			return sh.Now(), nil
		}
		if sh.MaxTime != 0 && t0 > sh.MaxTime {
			return t0, &LimitError{At: t0, Events: sh.stats.Events, What: "time"}
		}
		h := t0 + sh.lookahead
		sh.stats.Epochs++
		if sh.work != nil {
			sh.barrier.Add(len(sh.work))
			for _, ch := range sh.work {
				ch <- h
			}
			sh.barrier.Wait()
		} else {
			sh.walk(&sh.blocks[0], h)
		}
		ran := 0
		for i := range sh.blocks {
			ran += sh.blocks[i].ran
			sh.stats.Events += sh.blocks[i].events
		}
		sh.stats.Stalls += uint64(n - ran)
		sh.merge()
		if plain { // the oracle asks every lane, not the calendar
			sh.scan()
		}
		t0 = slices.Min(sh.next)
		if sh.MaxEvents != 0 && sh.stats.Events > sh.MaxEvents {
			return sh.Now(), &LimitError{At: sh.Now(), Events: sh.stats.Events, What: "event"}
		}
	}
}

// Shutdown stops every lane's unfinished procs (linear per lane; see
// Scheduler.Shutdown). Call after Run returns an error or panics.
func (sh *Shard) Shutdown() {
	for _, ln := range sh.lanes {
		ln.Shutdown()
	}
}
