// Package sim provides a deterministic discrete-event simulation kernel.
//
// A simulation consists of a Scheduler owning a virtual clock and an event
// queue, plus any number of Procs (logical processes). Procs run as runtime
// coroutines (iter.Pull), so at any instant exactly one of {the scheduler,
// one proc} executes; the coroutine switch also provides the happens-before
// edges that make shared model state race-free without locks.
//
// Time is virtual: a Proc consumes time only by calling Advance (modeling
// computation or device occupancy) or by blocking on a Cond/FIFO until some
// event wakes it. Event ordering is (time, sequence), so runs are fully
// deterministic for a given program and seed.
//
// There is one kernel and two ways to drive it. A standalone Scheduler is
// driven by its own Run: one event queue, one clock. A Shard partitions a
// world into per-node lanes — each lane is the same Scheduler, running the
// same code — and drives them in epochs under a conservative lookahead
// barrier, with cross-lane events going through Route. NewKernel picks
// between the two from a lane count, and Scheduler.Node places a world's
// nodes on whichever was picked, so models are written once. Scheduling is
// allocation-free: events are pooled on an intrusive freelist and proc
// wakeups are typed events, not closures.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the run.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts directly
// to and from time.Duration.
type Duration = time.Duration

// Microseconds reports t as a floating-point count of microseconds,
// the unit used throughout the paper.
func (t Time) Microseconds() float64 { return float64(t) / 1e3 }

// Duration reports the span from the zero time to t.
func (t Time) Duration() Duration { return Duration(t) }

func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Microseconds()) }

// event is one queue entry: either a callback (fn) or a proc wakeup (proc).
// Proc wakeups carry the proc pointer instead of a closure so the Advance/
// Cond/FIFO hot paths schedule without allocating. next links an event to
// whatever follows it in the one place it sits: the scheduler's freelist,
// the same-instant queue, or its heap chain (the events pushed right after
// it for the same t, which wait behind it instead of entering the heap).
// child and sib are its pairing-heap links, used only while it is a chain
// head in the heap; an event leaves the heap with both nil.
type event struct {
	t    Time
	seq  uint64
	fn   func()
	proc *Proc
	next *event // chain successor, same-instant queue or freelist link

	child *event // first child: the most recently melded subheap
	sib   *event // next sibling in the parent's child list
}

// meld joins two heap-ordered trees and returns the root: the later root
// in (t, seq) order, a total order since seqs are unique, becomes the
// earlier one's first child. The returned root's sib is left as it was;
// callers that keep it as the heap root clear it.
func meld(a, b *event) *event {
	if b.t < a.t || b.t == a.t && b.seq < a.seq {
		a, b = b, a
	}
	b.sib = a.child
	a.child = b
	return a
}

// pairChildren combines a removed root's child list into one tree by the
// standard two passes: meld left-to-right pairs, then meld the pairs from
// right to left. The first pass threads its results through sib in
// reverse, so the second is a plain walk; neither recurses.
func pairChildren(first *event) *event {
	var pairs *event
	for first != nil {
		a := first
		first = nil
		if b := a.sib; b != nil {
			first = b.sib
			a = meld(a, b)
		}
		a.sib, pairs = pairs, a
	}
	for pairs != nil && pairs.sib != nil {
		rest := pairs.sib.sib
		pairs = meld(pairs, pairs.sib)
		pairs.sib = rest
	}
	return pairs
}

// Scheduler owns the virtual clock and the event queue.
//
// A standalone Scheduler is driven by Run. Event callbacks and
// Proc bodies may freely schedule further events, spawn procs, and signal
// conditions. A panic or Goexit (t.Fatal) inside a proc body unwinds onto
// the goroutine driving the scheduler, as it would from an event callback.
//
// A Scheduler may also be one lane of a Shard (see NewShard), in which case
// it is driven by the shard's epoch loop instead of Run, and cross-lane
// events go through Route. Nothing else differs between the two.
type Scheduler struct {
	now   Time
	root  *event // pairing heap of chain heads over (t, seq); nil when empty
	free  *event // event freelist (intrusive, via event.next)
	seq   uint64
	procs map[*Proc]struct{}
	rng   *rand.Rand // seeded from seed on the first Rand call

	// Same-instant queue: events scheduled for t == now, in seq order,
	// threaded through event.next. Such an event has a larger seq than
	// anything already queued for now, so it runs after the heap's t == now
	// entries and before the clock moves — FIFO order is (t, seq) order, with
	// no sift and no slice.
	sameHead, sameTail *event

	// lastTail is the latest heap push's event until it is popped; a heap
	// push for the same t chains behind it instead of entering the heap.
	lastTail *event

	// Limits guard against runaway models; zero means no limit.
	MaxEvents uint64
	MaxTime   Time
	nEvents   uint64

	// Lane wiring; zero-valued for a standalone scheduler.
	shard *Shard
	lane  int32

	// noFastPath routes every event through the heap and every Advance
	// through schedule + park. Written by this package's tests, which use
	// the plain kernel as the oracle for the shortcuts, and on every new
	// scheduler under the plainkernel build tag (plainKernel). It shares
	// lane's word, so a Scheduler stays in the 176 B size class.
	noFastPath bool

	xseq   uint64  // staging order of cross-lane sends from this lane
	outbox []*xmsg // cross-lane sends staged until the epoch barrier
	xfree  *xmsg   // mailbox envelope freelist
	window Time    // current epoch horizon (lane mode; events < window run)

	seed       int64  // Rand's seed; after the hot fields, so they keep their offsets
	dispatches uint64 // proc switches (see Dispatches)
}

// plainKernel is set under the plainkernel build tag (plainkernel.go).
var plainKernel bool

// NewScheduler returns a Scheduler with the deterministic RNG seeded by seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{procs: make(map[*Proc]struct{}), seed: seed, noFastPath: plainKernel}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand exposes the run's deterministic random source. It must only be used
// while holding the execution token (i.e. from proc bodies or event
// callbacks), which all model code does by construction. Each lane of a
// shard has its own stream. The source is built on first use, so a lane
// that never draws never pays for one, and the stream is the same whenever
// the first draw comes.
func (s *Scheduler) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng
}

// LaneID reports which shard lane this scheduler is: the Route address of
// everything built on it. A standalone scheduler is lane 0 of itself.
func (s *Scheduler) LaneID() int { return int(s.lane) }

// Shard reports the shard this scheduler is a lane of, or nil.
func (s *Scheduler) Shard() *Shard { return s.shard }

// Lookahead reports the minimum latency a cross-lane Route from this
// scheduler must carry: the shard's lookahead, or zero when standalone
// (where every Route is a local timer). Models validate their cross-node
// latencies against it at construction.
func (s *Scheduler) Lookahead() Duration {
	if s.shard == nil {
		return 0
	}
	return Duration(s.shard.lookahead)
}

// Node reports the scheduler that owns node i of an n-node world built on
// s: s itself when standalone, otherwise lane i*lanes/n of s's shard. The
// block map is the one placement every model uses — it keeps lane order
// equal to node order, which is what makes a Stage's same-instant merge
// order (srcLane, srcSeq) equal rank order on every lane count.
func (s *Scheduler) Node(i, n int) *Scheduler {
	if s.shard == nil {
		return s
	}
	lanes := s.shard.lanes
	return lanes[i*len(lanes)/n]
}

// alloc draws a recycled event or grows the pool by one.
func (s *Scheduler) alloc() *event {
	e := s.free
	if e == nil {
		return &event{}
	}
	s.free = e.next
	e.next = nil
	return e
}

// release recycles e onto the freelist. Callers must have copied out any
// fields they still need.
func (s *Scheduler) release(e *event) {
	e.fn, e.proc = nil, nil
	e.next = s.free
	s.free = e
}

func (s *Scheduler) schedule(t Time, fn func(), p *Proc) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	e := s.alloc()
	e.t, e.seq, e.fn, e.proc = t, s.seq, fn, p
	switch {
	case s.noFastPath:
		s.push(e)
	case t > s.now:
		// Chain behind the previous heap push if it is still queued for t:
		// no heap push came between the two, so nothing queued sorts
		// between them and a popped head's successor is still the minimum.
		if l := s.lastTail; l != nil && l.t == t {
			l.next = e
		} else {
			s.push(e)
		}
		s.lastTail = e
	case s.sameTail == nil:
		s.sameHead, s.sameTail = e, e
	default:
		s.sameTail.next = e
		s.sameTail = e
	}
}

// idle is the time pending reports for an empty queue: later than any
// event.
const idle = Time(math.MaxInt64)

// pending reports the time of the earliest queued event, or idle. Heap
// entries are never earlier than now, so a non-empty same-instant queue
// means the answer is now.
func (s *Scheduler) pending() Time {
	if s.sameHead != nil {
		return s.now
	}
	if s.root == nil {
		return idle
	}
	return s.root.t
}

// push melds e, a new chain head, into the heap: one comparison.
func (s *Scheduler) push(e *event) {
	if s.root == nil {
		s.root = e
		return
	}
	s.root = meld(s.root, e)
}

// popRoot removes the heap's minimum. A root with a chain successor hands
// it the root's children in O(1): no heap push came between the two (see
// schedule), so nothing in the heap sorts between them and the successor
// is the new minimum. Otherwise the children are paired.
func (s *Scheduler) popRoot() *event {
	e := s.root
	if n := e.next; n != nil {
		n.child, e.child, e.next = e.child, nil, nil
		s.root = n
		return e
	}
	s.root = pairChildren(e.child)
	e.child = nil
	return e
}

// pop removes the earliest queued event in (t, seq) order; pending must
// have reported one. Heap entries at the current instant, chained or not,
// were scheduled before the clock reached it, so they precede the whole
// same-instant queue.
func (s *Scheduler) pop() *event {
	e := s.sameHead
	if e == nil || (s.root != nil && s.root.t <= s.now) {
		e = s.popRoot()
		if e == s.lastTail {
			s.lastTail = nil
		}
		return e
	}
	if s.sameHead = e.next; e.next == nil {
		s.sameTail = nil
	}
	return e
}

// At schedules fn to run at time t (clamped to now). fn runs with the
// execution token held, in scheduler context.
func (s *Scheduler) At(t Time, fn func()) { s.schedule(t, fn, nil) }

// After schedules fn to run d from now.
func (s *Scheduler) After(d Duration, fn func()) { s.At(s.now+Time(d), fn) }

// atProc schedules a proc wakeup without allocating a closure.
func (s *Scheduler) atProc(t Time, p *Proc) { s.schedule(t, nil, p) }

// Proc is a logical process: a coroutine whose execution interleaves with
// events under the scheduler's single execution token. A switch is one
// iter.Pull resume or yield, on a standalone scheduler and a shard lane
// alike.
type Proc struct {
	s       *Scheduler
	relay   Relay // parked in SpendThen or WaitThen: the kernel runs it at the wake
	name    string
	done    bool
	inRelay bool     // a relay of p's is running (see callRelay)
	waiting bool     // p's relay chain is in a Cond wait, since d2: its charges are not parked time
	relayed bool     // SpendThen's charges: the kernel books c1 at its
	c1, c2  Cat      // wake (each in turn, in a chain), p books c2 when it
	d1, d2  Duration // resumes, if the relay's last step reported it

	Ledger *Ledger  // when set, books Spend, and at exit the time parked
	parked Duration // in Cond.Wait

	next    func() (struct{}, bool)
	stop    func()
	yieldTo func(struct{}) bool
}

// procStopped is the panic sentinel that unwinds a proc during Shutdown
// without running further user code.
type procStopped struct{}

// Name reports the name the proc was spawned with.
func (p *Proc) Name() string { return p.name }

// Scheduler reports the scheduler that owns p.
func (p *Proc) Scheduler() *Scheduler { return p.s }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Spawn creates a proc named name running fn, starting at the current
// virtual time (after already-queued events at this time).
func (s *Scheduler) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name}
	s.procs[p] = struct{}{}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldTo = yield
		defer func() {
			if p.Ledger != nil {
				p.Ledger.Spent[Parked] += p.parked
			}
			p.done = true
			delete(s.procs, p)
			if r := recover(); r != nil {
				if _, ok := r.(procStopped); !ok {
					panic(r) // a model bug: surfaces from next() in dispatch
				}
			}
		}()
		fn(p)
	})
	s.atProc(s.now, p)
	return p
}

// dispatch hands the execution token to p and returns once p parks or
// finishes. Must be called from scheduler context. If p's body panics or
// calls Goexit, iter.Pull re-raises that here, on the goroutine driving the
// scheduler.
func (s *Scheduler) dispatch(p *Proc) {
	if !p.done {
		s.dispatches++
		p.next()
	}
}

// Dispatches reports how many times a proc was handed the execution token:
// the coroutine switches the run paid for, which run-ahead and relays save.
func (s *Scheduler) Dispatches() uint64 { return s.dispatches }

// park gives the execution token back to the scheduler and returns once the
// proc is dispatched again. Must be called from p's coroutine. If the
// scheduler is shut down in the meantime, the coroutine unwinds from here
// instead of resuming user code.
func (p *Proc) park() {
	if !p.yieldTo(struct{}{}) {
		panic(procStopped{})
	}
}

// Advance consumes d of virtual time: the proc parks and is woken once the
// clock reaches now+d. Negative durations are treated as zero. When the
// wakeup would be the very next event the driver runs, the proc keeps the
// execution token and runs ahead instead (see runAhead).
func (p *Proc) Advance(d Duration) {
	p.checkCharge(d)
	if d < 0 {
		d = 0
	}
	s := p.s
	t := s.now + Time(d)
	if s.runAhead(t) {
		return
	}
	s.atProc(t, p)
	p.park()
}

// runAhead executes a proc wakeup for time t in place of scheduling it,
// when scheduling it could have no other outcome: nothing is queued at or
// before t, so the new event (largest seq) would be the driver's next pop;
// the driver would not stop first (no limit is over, and on a lane t is
// inside the epoch window — a wakeup at or past the horizon must wait for
// the barrier, which may merge earlier cross-lane events ahead of it). The
// bookkeeping is what schedule + runEvent would have done, minus the heap
// and the two coroutine switches.
func (s *Scheduler) runAhead(t Time) bool {
	if s.sameHead != nil || (s.root != nil && s.root.t <= t) || s.noFastPath {
		return false
	}
	if s.shard != nil {
		if t >= s.window {
			return false
		}
	} else if s.MaxTime != 0 && s.now > s.MaxTime {
		return false
	}
	if s.overEventLimit() {
		return false
	}
	s.seq++
	s.now = t
	s.nEvents++
	return true
}

// overEventLimit reports whether the event limit in force — the
// scheduler's own, or its shard's on a lane (a per-lane bound that keeps a
// same-instant livelock inside one window from running away before the
// control plane applies the global limit) — has been passed.
func (s *Scheduler) overEventLimit() bool {
	max := s.MaxEvents
	if s.shard != nil {
		max = s.shard.MaxEvents
	}
	return max != 0 && s.nEvents > max
}

// Yield parks the proc and reschedules it at the current time, letting
// other events and procs scheduled for this instant run first.
func (p *Proc) Yield() { p.Advance(0) }

// Cond is a virtual-time condition variable. Procs Wait on it; Signal and
// Broadcast wake waiters via zero-delay events, so wakeups are ordered and
// deterministic. There is no spurious wakeup, but as with sync.Cond the
// guarded predicate should be re-checked by the waiter.
type Cond struct {
	s       *Scheduler
	waiters []*Proc
	head    int // index of the longest waiter; avoids O(n) head shifts
}

// NewCond returns a condition variable bound to s.
func NewCond(s *Scheduler) *Cond { return &Cond{s: s} }

// Wait parks p until a Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.Requeue(p)
	p.wait()
}

// wait parks p, already queued on a Cond, and books the time it parked.
func (p *Proc) wait() {
	t0 := p.s.now
	p.park()
	p.parked += Duration(p.s.now - t0)
}

// Requeue queues p on c without parking it: a relay that leaves p waiting
// calls it, then reports Stay.
func (c *Cond) Requeue(p *Proc) { c.waiters = append(c.waiters, p) }

// WaitThen is Wait with r run at each wake, as p would run it first thing
// on waking, and again at the wake of each charge r reports: r reports
// Stay, having put p back on c with Requeue, Decline, or a charge with More
// or Last, as a SpendThen relay does. WaitThen returns at the wake where r
// declines, or once the charge r reported with Last has passed. It is a
// SpendThen chain that starts in Stay: the kernel runs r at each wake in
// p's place (DESIGN §4, relay), so p is dispatched only at that last wake,
// and the charges are p's time, not parked time.
func (c *Cond) WaitThen(p *Proc, r Relay) {
	c.Requeue(p)
	if p.s.noFastPath { // the oracle: plain Waits and Spends, p running r itself
		p.wait()
		p.relayPlainly(r)
		return
	}
	p.relay, p.c1, p.d1 = r, 0, 0
	p.stay()
	p.park()
	p.relayEnded()
}

// Signal wakes the longest-waiting proc, if any. It runs in O(1): the wait
// queue keeps a head index instead of shifting the slice — Signal sits on
// the wakeup path of every credit and slot stall.
func (c *Cond) Signal() {
	if c.head == len(c.waiters) {
		return
	}
	p := c.waiters[c.head]
	c.waiters[c.head] = nil
	c.head++
	if c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	} else if c.head >= 32 && c.head*2 >= len(c.waiters) {
		// Compact so a never-drained queue cannot grow without bound.
		n := copy(c.waiters, c.waiters[c.head:])
		clear(c.waiters[n:])
		c.waiters = c.waiters[:n]
		c.head = 0
	}
	c.s.atProc(c.s.now, p)
}

// Broadcast wakes all waiting procs in FIFO order.
func (c *Cond) Broadcast() {
	for i := c.head; i < len(c.waiters); i++ {
		c.s.atProc(c.s.now, c.waiters[i])
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
	c.head = 0
}

// Waiting reports how many procs are blocked on c.
func (c *Cond) Waiting() int { return len(c.waiters) - c.head }

// FIFO models a serially-reusable resource: a link, bus, DMA engine, or
// shared medium. Use occupies the resource for a span of virtual time;
// contending users are served in FIFO order. In a sharded world a FIFO
// belongs to the lane of the scheduler it was built on — media pin each
// node's FIFOs to that node's lane so reservations stay lane-local.
type FIFO struct {
	s         *Scheduler
	name      string
	busyUntil Time
}

// NewFIFO returns a FIFO resource bound to s.
func NewFIFO(s *Scheduler, name string) *FIFO { return &FIFO{s: s, name: name} }

// UseAsync occupies the resource for d starting as soon as it is free, and
// schedules fn at the completion time. It does not block the caller (a
// device occupies the resource, not a proc) and may be called from event
// context. It returns the completion time.
func (f *FIFO) UseAsync(d Duration, fn func()) Time {
	start := f.reserve(d)
	end := start + Time(d)
	if fn != nil {
		f.s.At(end, fn)
	}
	return end
}

// reserve allocates the next available slot of length d and returns its
// start time.
func (f *FIFO) reserve(d Duration) Time {
	start := f.s.now
	if f.busyUntil > start {
		start = f.busyUntil
	}
	f.busyUntil = start + Time(d)
	return start
}

// ReserveAt allocates the next slot of length d with the queueing clock
// floored at t0 instead of the scheduler's now, and returns the completion
// time. Stages use it when processing a request after the instant it was
// stamped (see Stage): FIFO arithmetic depends only on the stamp and the
// resource horizon, so a deferred reservation queues exactly as an
// immediate one would have.
func (f *FIFO) ReserveAt(t0 Time, d Duration) Time {
	start := t0
	if f.busyUntil > start {
		start = f.busyUntil
	}
	f.busyUntil = start + Time(d)
	return f.busyUntil
}

// DeadlockError reports that the event queue drained while procs were
// still parked.
type DeadlockError struct {
	At     Time
	Parked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: parked procs %v", e.At, e.Parked)
}

// LimitError reports that an execution limit was exceeded.
type LimitError struct {
	At     Time
	Events uint64
	What   string
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("sim: %s limit exceeded at %v after %d events", e.What, e.At, e.Events)
}

// runEvent executes one popped event: the event is recycled before its
// payload runs, so a chain of self-rescheduling events reuses one node.
func (s *Scheduler) runEvent(e *event) {
	s.now = e.t
	s.nEvents++
	fn, p := e.fn, e.proc
	s.release(e)
	if p != nil {
		if p.relay != nil && s.runRelay(p) {
			return
		}
		s.dispatch(p)
	} else {
		fn()
	}
}

// Run drives the simulation until the event queue drains. It returns the
// final virtual time. If procs remain parked when the queue drains, Run
// returns a *DeadlockError; if a configured limit is exceeded it returns a
// *LimitError. Lanes of a shard are driven by Shard.Run instead.
func (s *Scheduler) Run() (Time, error) {
	if s.shard != nil {
		panic("sim: lane schedulers are driven by Shard.Run, not Scheduler.Run")
	}
	for s.pending() != idle {
		s.runEvent(s.pop())
		if s.overEventLimit() {
			return s.now, &LimitError{At: s.now, Events: s.nEvents, What: "event"}
		}
		if s.MaxTime != 0 && s.now > s.MaxTime {
			return s.now, &LimitError{At: s.now, Events: s.nEvents, What: "time"}
		}
	}
	if len(s.procs) != 0 {
		var names []string
		for p := range s.procs {
			names = append(names, p.name)
		}
		sort.Strings(names)
		return s.now, &DeadlockError{At: s.now, Parked: names}
	}
	return s.now, nil
}

// Events reports how many events have executed.
func (s *Scheduler) Events() uint64 { return s.nEvents }

// Shutdown stops every unfinished proc: parked procs unwind inside park
// without running further user code, and procs spawned but never dispatched
// never run at all. Call it after Run returns an error (deadlock, limit) or
// is unwound by a panic, so their coroutines are not leaked; after a clean
// Run there is nothing left to stop.
func (s *Scheduler) Shutdown() {
	for p := range s.procs {
		// stop resumes a suspended coroutine with yield -> false, so park
		// unwinds it; one that never started, or whose body already
		// unwound, is only marked finished.
		p.stop()
		p.done = true
		delete(s.procs, p)
		// A Cond's waiters may still name p: let go of its coroutine, and
		// through it the body's closure.
		p.next, p.stop, p.yieldTo, p.relay = nil, nil, nil, nil
	}
}
