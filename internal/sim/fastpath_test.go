package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// The kernel runs an event one of four ways — heap pop, same-instant
// queue, run-ahead Advance, relay — and the last three are shortcuts that
// must be indistinguishable from the first, as must the heap's own
// shortcut of chaining same-t pushes behind one entry, and the shard's of
// running only the lanes its calendar says have work. The oracle is the
// same kernel with noFastPath set: every event through the heap, one entry
// each, every Advance through schedule + park, every SpendThen plain
// Spends with the proc running the relay, every lane visited every epoch.

const (
	fpNodes     = 16                    // logical nodes, block-mapped onto the lanes
	fpLookahead = 100 * time.Nanosecond // shard epoch width
	fpGrid      = 50                    // coarse instants procs meet at, so heap chains form
	fpSteps     = 60                    // operations per root proc
	fpMaxEvents = 1_000_000             // far above any program here
	fpLateNode  = fpNodes * 3 / 4       // nodes from here on start late ...
	fpLate      = 10 * fpLookahead      // ... woken across lanes at this time
	fpFar       = time.Millisecond      // after every program here has finished
)

// qkey is a queued event's place in the (t, seq) order.
type qkey struct {
	t   Time
	seq uint64
}

func (k qkey) cmp(o qkey) int {
	return cmp.Or(cmp.Compare(k.t, o.t), cmp.Compare(k.seq, o.seq))
}

// queueOracle drives one scheduler's queue by hand and checks every pop
// against a sorted list of everything queued.
type queueOracle struct {
	tb     testing.TB
	s      *Scheduler
	queued []qkey // in (t, seq) order
	chains int    // pushes that linked behind the previous heap push
}

func newQueueOracle(tb testing.TB, seed int64) *queueOracle {
	return &queueOracle{tb: tb, s: NewScheduler(seed)}
}

// push queues a callback at at (clamped to now), through At or After.
func (q *queueOracle) push(at Time, after bool) {
	s := q.s
	if willChain(s, at) {
		q.chains++
	}
	if after {
		s.After(Duration(at-s.now), func() {})
	} else {
		s.At(at, func() {})
	}
	k := qkey{max(at, s.now), s.seq}
	i, _ := slices.BinarySearchFunc(q.queued, k, qkey.cmp)
	q.queued = slices.Insert(q.queued, i, k)
}

// pop runs the kernel's next event, which must be the sort's first.
func (q *queueOracle) pop() {
	e := q.s.pop()
	if got := (qkey{e.t, e.seq}); got != q.queued[0] {
		q.tb.Fatalf("popped %+v, sort gives %+v (queued %v)", got, q.queued[0], q.queued)
	}
	q.queued = q.queued[1:]
	q.s.runEvent(e)
}

// advance is Proc.Advance's decision: run ahead to at, which must pass no
// queued event, or schedule the wakeup.
func (q *queueOracle) advance(at Time) {
	if !q.s.runAhead(at) {
		q.push(at, false)
		return
	}
	if len(q.queued) != 0 && q.queued[0].t <= at {
		q.tb.Fatalf("ran ahead to %v over queued %+v", at, q.queued[0])
	}
}

// drain pops everything; the kernel must then hold nothing.
func (q *queueOracle) drain() {
	for len(q.queued) != 0 {
		q.pop()
	}
	if q.s.pending() != idle {
		q.tb.Fatal("the kernel still holds events the sort does not")
	}
}

// A push for a later instant either enters the heap, as a chain head, or
// links behind the previous push; either way the driver must pop in exact
// (t, seq) order. Each program is seeded and checked against a sort of
// everything queued, and each counts the shape it exists for, so a
// program that stopped producing it fails:
//   - grid: pushes to 1–4 distinct future instants, same-instant and
//     clamped events, run-ahead Advances and pops (chained pushes);
//   - rpc: 128+ distinct far instants, one per sleeping client, under a
//     stream of near pushes and pops (pops that pair a wide child list);
//   - split: same-t pushes with another push between, so each is its own
//     head (unchained repeats);
//   - descending: every push becomes the new root;
//   - ascending: the root collects every push as a child, and its first
//     pop pairs them all.
func TestEventQueueChainsMatchSort(t *testing.T) {
	if plainKernel {
		t.Skip("the plain kernel (plainkernel build tag) takes none of the shortcuts this test pins")
	}
	programs := []struct {
		name  string
		run   func(q *queueOracle, rng *rand.Rand) int
		shape string
	}{
		{"grid", func(q *queueOracle, rng *rand.Rand) int {
			instants := Time(1 + rng.Intn(4))
			for step := 0; step < 400; step++ {
				now := q.s.now
				switch op := rng.Intn(10); {
				case op < 5: // one of the next few grid instants
					q.push((now/10+1+Time(rng.Intn(int(instants))))*10, rng.Intn(2) == 0)
				case op == 5: // same instant, or clamped up from the past
					q.push(now-Time(rng.Intn(2)), rng.Intn(2) == 0)
				case op == 6: // Advance: run ahead, or schedule the wakeup
					q.advance(now + Time(rng.Intn(25)))
				default:
					if len(q.queued) != 0 {
						q.pop()
					}
				}
			}
			return q.chains
		}, "chained pushes"},
		{"rpc", func(q *queueOracle, rng *rand.Rand) int {
			const clients = 140
			far := make(map[uint64]bool) // seqs of queued think-time wakeups
			think := func(at Time) {
				q.push(at, false)
				far[q.s.seq] = true
			}
			for c := 0; c < clients; c++ {
				think(1_000 + Time(c)*97 + Time(rng.Intn(97)))
			}
			wide := 0
			for step := 0; step < 1_500; step++ {
				now := q.s.now
				switch op := rng.Intn(8); {
				case op < 3: // the server's near-future work
					q.push(now+1+Time(rng.Intn(30)), rng.Intn(2) == 0)
				case op == 3:
					q.advance(now + Time(rng.Intn(10)))
				default:
					if len(q.queued) == 0 {
						continue
					}
					if q.s.root != nil && q.s.root.next == nil && heapChildren(q.s.root) >= 8 {
						wide++
					}
					k := q.queued[0]
					q.pop()
					if far[k.seq] { // the client thinks again
						delete(far, k.seq)
						think(q.s.now + 10_000 + Time(rng.Intn(10_000)))
					}
				}
			}
			distinct := make(map[Time]bool)
			for _, k := range q.queued {
				if far[k.seq] {
					distinct[k.t] = true
				}
			}
			if n := heapHeads(q.s.root); len(distinct) < 128 || n < len(distinct) {
				q.tb.Fatalf("%d heap heads for %d distinct far instants, want 128 or more", n, len(distinct))
			}
			return wide
		}, "pops of a root with 8+ children"},
		{"split", func(q *queueOracle, rng *rand.Rand) int {
			repeats := 0
			for step := 0; step < 300; step++ {
				now := q.s.now
				if rng.Intn(4) == 0 && len(q.queued) != 0 {
					q.pop()
					continue
				}
				at := now + 1 + Time(rng.Intn(3)) // few instants, so they recur
				if !willChain(q.s, at) && slices.ContainsFunc(q.queued, func(k qkey) bool { return k.t == at }) {
					repeats++
				}
				q.push(at, false)
			}
			return repeats
		}, "unchained same-t pushes"},
		{"descending", func(q *queueOracle, rng *rand.Rand) int {
			roots := 0
			n := 50 + rng.Intn(100)
			for i := n; i > 0; i-- {
				q.push(q.s.now+Time(i), rng.Intn(2) == 0)
				if q.s.root.seq == q.s.seq {
					roots++
				}
			}
			if roots != n {
				q.tb.Fatalf("%d of %d descending pushes became the root", roots, n)
			}
			return roots
		}, "pushes that became the root"},
		{"ascending", func(q *queueOracle, rng *rand.Rand) int {
			n := 50 + rng.Intn(100)
			for i := 1; i <= n; i++ {
				q.push(q.s.now+Time(i), rng.Intn(2) == 0)
			}
			if c := heapChildren(q.s.root); c != n-1 {
				q.tb.Fatalf("root holds %d children after %d ascending pushes", c, n)
			}
			q.pop() // pairs n-1 children
			if h := heapHeads(q.s.root); h != n-1 {
				q.tb.Fatalf("%d heads after the first pop, want %d", h, n-1)
			}
			return n - 1
		}, "children paired by one pop"},
	}
	for _, pg := range programs {
		t.Run(pg.name, func(t *testing.T) {
			shapes := 0
			for seed := int64(1); seed <= 300; seed++ {
				q := newQueueOracle(t, seed)
				shapes += pg.run(q, rand.New(rand.NewSource(seed)))
				q.drain()
			}
			if shapes == 0 {
				t.Fatalf("no %s", pg.shape)
			}
			t.Logf("%d %s", shapes, pg.shape)
		})
	}
}

// heapChildren counts a heap node's children.
func heapChildren(e *event) int {
	n := 0
	for c := e.child; c != nil; c = c.sib {
		n++
	}
	return n
}

// heapHeads counts the chain heads in the heap rooted at e, by a walk over
// child and sib that allocates nothing.
func heapHeads(e *event) int {
	n := 0
	for ; e != nil; e = e.sib {
		n += 1 + heapHeads(e.child)
	}
	return n
}

// Every queued event is one pooled event; its size is pinned so that a
// field added to it (item 15's kind) states what it costs: 56 B today, the
// five fields every event carries plus the two heap links.
func TestEventSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 56 {
		t.Fatalf("event is %d B, pinned at 56", got)
	}
}

// Every rank has a proc, so its size is pinned too: 104 B (the 112 B size
// class), 72 B before the relay's interface, its two charges and the flag
// that says whether it took the second.
func TestProcSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(Proc{}); got != 104 {
		t.Fatalf("Proc is %d B, pinned at 104", got)
	}
}

// Every shard lane is a Scheduler (1 024 on a 1 024-lane world), so its
// size is pinned at 176 B, a Go size class of its own: a field that does
// not fit the padding beside lane and noFastPath costs every lane 16 B.
func TestSchedulerSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(Scheduler{}); got != 176 {
		t.Fatalf("Scheduler is %d B, pinned at 176", got)
	}
}

// The queue's shapes are fuzzed as well: each input byte is one operation
// (push near or far, push for the current instant or the past, Advance,
// pop), and every pop is checked against the sort, every run-ahead against
// the earliest queued event.
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		q := newQueueOracle(t, 1)
		for _, b := range ops {
			now, arg := q.s.now, Time(b>>3)
			switch b & 7 {
			case 0, 1: // near: instants recur, so pushes chain or split
				q.push(now+1+arg%4, b&1 == 1)
			case 2: // spread over 32 instants
				q.push(now+1+arg, false)
			case 3: // far: a sleeping client
				q.push(now+1_000+arg*37, false)
			case 4: // same instant
				q.push(now, true)
			case 5: // clamped up from the past
				q.push(now-1-arg, false)
			case 6:
				q.advance(now + arg)
			case 7:
				if len(q.queued) != 0 {
					q.pop()
				}
			}
		}
		q.drain()
	})
}

// fpRec is one line of a node's execution log: who ran, when, doing what.
type fpRec struct {
	t     Time
	actor int
	what  int
}

// fpNode is everything one logical node's procs and callbacks touch; it is
// only ever touched from its own lane.
type fpNode struct {
	s      *Scheduler
	conds  [3]*Cond
	fifo   *FIFO
	log    []fpRec
	ledger Ledger // every proc of the node books here

	// How often the program met each shortcut's precondition, read from the
	// kernel's own state, so a run that never exercised them cannot pass.
	runAheadChances, sameInstantSeen, chainAppends, relays, pairParks, chainHops, waitStays int
	waitCharges, chargedStays, otherStays                                                   int
}

func (n *fpNode) note(actor, what int) {
	if n.s.sameHead != nil {
		n.sameInstantSeen++
	}
	n.log = append(n.log, fpRec{n.s.now, actor, what})
}

// willChain reports, from the kernel's own state, whether a push for at
// will link behind the previous heap push instead of entering the heap.
func willChain(s *Scheduler, at Time) bool {
	l := s.lastTail
	return l != nil && l.t == at && at > s.now
}

func (n *fpNode) chains(at Time) {
	if willChain(n.s, at) {
		n.chainAppends++
	}
}

// fpRelay is the program's code between two charges: it reads and writes
// its node's state, and declines the second charge when cond 0 had a
// waiter.
type fpRelay struct {
	n      *fpNode
	p      *Proc
	id     int
	d      Duration
	parked bool // the first charge parked p
}

func (r *fpRelay) Relay() (Cat, Duration, Step) {
	n := r.n
	if r.parked && r.p.relay != nil { // run by the kernel, in p's place
		n.relays++
	}
	w := n.conds[0].Waiting()
	n.note(r.id, 110+w)
	n.conds[0].Signal()
	n.fifo.UseAsync(r.d, func() { n.note(r.id, 108) })
	if w > 0 {
		return 0, 0, Decline
	}
	return Sync, r.d, Last
}

// fpSecond is a relay that only reports a second charge, Overhead d.
type fpSecond Duration

func (r fpSecond) Relay() (Cat, Duration, Step) { return Overhead, Duration(r), Last }

// fpChain is a chained relay of 1–4 steps: each touches the node as
// fpRelay does and reports its own charge, More until the last; it
// declines at step decline, when that comes first.
type fpChain struct {
	n                    *fpNode
	p                    *Proc
	id                   int
	ds                   [4]Duration
	steps, decline, step int
	parks                func(Duration) bool
	parked               bool // the charge before this step parked p
}

func (r *fpChain) Relay() (Cat, Duration, Step) {
	n, k := r.n, r.step
	if r.parked && r.p.relay != nil && k > 0 { // a later step, run by the kernel
		n.chainHops++
	}
	r.step++
	n.note(r.id, 130+k)
	n.conds[k%len(n.conds)].Signal()
	n.fifo.UseAsync(r.ds[k], func() { n.note(r.id, 140+k) })
	if k == r.decline {
		return 0, 0, Decline
	}
	r.parked = r.parks(r.ds[k])
	if k == r.steps-1 {
		return Cat(k), r.ds[k], Last
	}
	return Cat(k), r.ds[k], More
}

// fpWait is a Cond wait's relay (WaitThen): at each wake it touches its
// node as fpRelay does and reports 0–2 charges (More), then stays —
// queueing p again, on the Cond or on another one as a socket read waits on
// its connection, and arming the signal that will wake it, as every wait in
// the program does — until it has stayed stays times; at the last wake it
// declines, or reports its last charge with Last.
type fpWait struct {
	n               *fpNode
	p               *Proc
	c, other        *Cond
	id, stays       int
	charges         int  // charges left before this wake's Stay or end
	last            bool // the wait ends on a charge (Last), not Decline
	rng             *rand.Rand
	chargesInPlace  *int // charged steps the kernel ran in p's place
	chargedThenStay *int // Stays after a charged step, run in p's place
	charged         bool // this wake reported a charge
	lastRan         bool // the relay reported its Last charge
}

func (r *fpWait) Relay() (Cat, Duration, Step) {
	n, id, c := r.n, r.id, r.c
	n.note(id, 150+r.stays)
	n.fifo.UseAsync(Duration(r.rng.Intn(30)), func() { n.note(id, 109) })
	inPlace := r.p.relay != nil // run by the kernel, in p's place
	if r.charges > 0 {
		r.charges--
		r.charged = true
		if inPlace {
			*r.chargesInPlace++
		}
		d := Duration(r.rng.Intn(40))
		if r.charges == 0 && r.stays == 0 && r.last {
			r.lastRan = true
			return Cat(id % 4), d, Last
		}
		return Cat(id%4 + 4), d, More
	}
	if r.stays == 0 {
		return 0, 0, Decline
	}
	if inPlace {
		n.waitStays++
		if r.charged {
			*r.chargedThenStay++
		}
	}
	r.stays--
	r.charges, r.charged = r.rng.Intn(3), false
	if r.rng.Intn(2) == 0 {
		c = r.other
		if inPlace {
			n.otherStays++
		}
	}
	c.Requeue(r.p)
	n.s.After(Duration(r.rng.Intn(60)), func() { n.note(id, 100); c.Signal() })
	return 0, 0, Stay
}

// fpResult is what the two kernels must agree on.
type fpResult struct {
	logs    [][]fpRec
	ledgers []Ledger
	events  uint64
	end     Time
	stats   ShardStats // zero on a standalone scheduler
	limit   uint64     // LimitError.Events when the run hit maxEvents

	runAheadChances, sameInstantSeen, chainAppends, relays, pairParks, chainHops, waitStays int
	waitCharges, chargedStays, otherStays                                                   int
	cutChains                                                                               int // chains parked mid-way when the run stopped
}

// runFastPathProgram runs the seeded random program on the given kernel
// (lanes 0: standalone scheduler) under an event limit (0: fpMaxEvents)
// and reports what happened. Every actor draws from its own stream, so the
// program is a fixed function of the seed and only the kernel's ordering
// is under test.
func runFastPathProgram(t *testing.T, seed int64, lanes int, parallel, slow bool, maxEvents uint64) fpResult {
	t.Helper()
	if maxEvents == 0 {
		maxEvents = fpMaxEvents
	}
	var root *Scheduler
	var sh *Shard
	if lanes == 0 {
		root = NewScheduler(seed)
		root.MaxEvents = maxEvents
		root.noFastPath = slow
	} else {
		sh = NewShard(seed, lanes, fpLookahead)
		sh.MaxEvents, sh.Parallel = maxEvents, parallel
		for _, ln := range sh.lanes {
			ln.noFastPath = slow
		}
		root = sh.Lane(0)
	}

	nodes := make([]*fpNode, fpNodes)
	for i := range nodes {
		s := root.Node(i, fpNodes)
		n := &fpNode{s: s, fifo: NewFIFO(s, fmt.Sprintf("fifo%d", i))}
		for k := range n.conds {
			n.conds[k] = NewCond(s)
		}
		nodes[i] = n
	}

	var body func(n *fpNode, id, depth, steps int) func(p *Proc)
	body = func(n *fpNode, id, depth, steps int) func(p *Proc) {
		return func(p *Proc) {
			rng := rand.New(rand.NewSource(seed<<20 + int64(id)))
			s := n.s
			p.Ledger = &n.ledger
			children := 0
			// parks reports whether a charge of d will park p rather than
			// run ahead, noting a push that will chain.
			parks := func(d Duration) bool {
				at := s.now + Time(d)
				if s.sameHead == nil && (s.root == nil || s.root.t > at) {
					n.runAheadChances++
					return false
				}
				n.chains(at)
				return true
			}
			advance := func(d Duration) {
				parks(d)
				p.Advance(d)
			}
			for step := 0; step < steps; step++ {
				op := rng.Intn(20)
				n.note(id, op)
				c := n.conds[rng.Intn(len(n.conds))]
				switch op {
				case 0:
					advance(0)
				case 1, 2:
					advance(Duration(1 + rng.Intn(40)))
				case 3:
					advance(fpLookahead + Duration(rng.Intn(300))) // at or past the horizon
				case 4:
					p.Yield()
				case 5:
					// Every wait arms its own signal, so waiters never
					// outnumber the signals still to come: no deadlock,
					// whoever else signals in between.
					s.After(Duration(rng.Intn(60)), func() { n.note(id, 100); c.Signal() })
					c.Wait(p)
				case 6:
					c.Signal()
				case 7:
					c.Broadcast()
				case 8:
					use(n.fifo, p, Duration(rng.Intn(30)))
				case 9:
					n.fifo.UseAsync(Duration(rng.Intn(30)), func() { n.note(id, 101) })
				case 10:
					// Now, later, or clamped up from the past.
					at := s.now + Time(rng.Intn(30)) - 5
					n.chains(at)
					s.At(at, func() { n.note(id, 102) })
				case 11, 12:
					dst := rng.Intn(fpNodes)
					d, wake := nodes[dst], rng.Intn(2) == 0
					s.RouteAfter(d.s.LaneID(), fpLookahead+Duration(rng.Intn(100)), func() {
						d.note(id, 103)
						if wake {
							d.conds[0].Signal()
						}
					})
				case 13:
					if depth < 2 && children < 2 {
						children++
						child := id*10 + children
						s.Spawn(fmt.Sprintf("p%d", child), body(n, child, depth+1, steps/3))
					}
				case 14:
					// Coarse durations: the node's procs meet at grid instants.
					advance(Duration(fpGrid - s.now%fpGrid))
				case 15:
					at := (s.now/fpGrid + 1 + Time(rng.Intn(2))) * fpGrid
					n.chains(at)
					s.At(at, func() { n.note(id, 104) })
				case 16:
					d1, d2 := Duration(rng.Intn(40)), Duration(rng.Intn(40))
					if parks(d1) {
						n.pairParks++
					}
					p.SpendThen(Compute, d1, fpSecond(d2))
				case 17:
					d := Duration(rng.Intn(40))
					r := &fpRelay{n: n, p: p, id: id, d: Duration(rng.Intn(40)), parked: parks(d)}
					if p.SpendThen(Match, d, r) {
						n.note(id, 121)
					} else {
						n.note(id, 120)
					}
				case 18:
					d := Duration(rng.Intn(40))
					r := &fpChain{n: n, p: p, id: id, steps: 1 + rng.Intn(4), decline: rng.Intn(6), parks: parks, parked: parks(d)}
					for k := range r.ds {
						r.ds[k] = Duration(rng.Intn(40))
					}
					if p.SpendThen(Protocol, d, r) {
						n.note(id, 123)
					} else {
						n.note(id, 122)
					}
				case 19:
					// A wait whose relay charges 0–2 times at each wake and
					// stays 0–3 times before it declines or ends on a
					// charge; the first wake's signal is armed here, as in
					// case 5.
					s.After(Duration(rng.Intn(60)), func() { n.note(id, 100); c.Signal() })
					r := &fpWait{n: n, p: p, c: c, other: NewCond(n.s), id: id, stays: rng.Intn(4), charges: rng.Intn(3), last: rng.Intn(2) == 0, rng: rng,
						chargesInPlace: &n.waitCharges, chargedThenStay: &n.chargedStays}
					if r.last && r.stays == 0 && r.charges == 0 {
						r.charges = 1
					}
					c.WaitThen(p, r)
					if r.lastRan {
						n.note(id, 125)
					} else {
						n.note(id, 124)
					}
				}
			}
			n.note(id, 200)
		}
	}
	spawnRoots := func(i int) {
		for k := 1; k <= 2; k++ {
			id := (i+1)*10 + k
			nodes[i].s.Spawn(fmt.Sprintf("p%d", id), body(nodes[i], id, 0, fpSteps))
		}
	}
	for i := range fpLateNode {
		spawnRoots(i)
	}
	// The last quarter of the nodes — one lane of 4, four of 16 — start
	// late: node 0 wakes them across lanes, so their lanes sit idle for
	// epochs until a merged envelope lands, and only the merge's calendar
	// update says they have work.
	nodes[0].s.At(Time(fpLate), func() {
		for i := fpLateNode; i < fpNodes; i++ {
			nodes[0].s.RouteAfter(nodes[i].s.LaneID(), fpLookahead, func() { spawnRoots(i) })
		}
	})
	// A Route staged before Run on a late node's idle lane, which Run
	// merges before its first epoch. It starts a relay whose last leg is
	// staged after every proc is done, when nothing but the merge's update
	// says there is work left.
	a, b := nodes[fpNodes-1], nodes[3]
	a.s.Route(b.s.LaneID(), 2*Time(fpLookahead)+7, func() {
		b.note(0, 105)
		b.s.RouteAfter(a.s.LaneID(), fpFar, func() {
			a.note(0, 106)
			a.s.RouteAfter(b.s.LaneID(), fpLookahead+1, func() { b.note(0, 107) })
		})
	})

	var res fpResult
	var err error
	if sh != nil {
		res.end, err = sh.Run()
		res.events, res.stats = sh.Events(), sh.Stats()
		var sum uint64
		for _, n := range res.stats.LaneEvents {
			sum += n
		}
		if sum != res.events {
			t.Fatalf("seed %d lanes %d parallel %v slow %v: lanes ran %d events, the shard counted %d", seed, lanes, parallel, slow, sum, res.events)
		}
		defer sh.Shutdown()
	} else {
		res.end, err = root.Run()
		res.events = root.Events()
		defer root.Shutdown()
	}
	var le *LimitError
	if errors.As(err, &le) && le.What == "event" {
		res.limit = le.Events
		if le.Events != res.events || le.Events <= maxEvents {
			t.Fatalf("seed %d lanes %d parallel %v slow %v: limit %d reported after %d events, %d ran", seed, lanes, parallel, slow, maxEvents, le.Events, res.events)
		}
	} else if err != nil {
		t.Fatalf("seed %d lanes %d parallel %v slow %v: %v", seed, lanes, parallel, slow, err)
	}
	for _, n := range nodes {
		res.logs = append(res.logs, n.log)
		res.ledgers = append(res.ledgers, n.ledger)
		res.runAheadChances += n.runAheadChances
		res.sameInstantSeen += n.sameInstantSeen
		res.chainAppends += n.chainAppends
		res.relays += n.relays
		res.pairParks += n.pairParks
		res.chainHops += n.chainHops
		res.waitStays += n.waitStays
		res.waitCharges += n.waitCharges
		res.chargedStays += n.chargedStays
		res.otherStays += n.otherStays
	}
	scheds := []*Scheduler{root}
	if sh != nil {
		scheds = sh.lanes
	}
	for _, s := range scheds {
		for p := range s.procs {
			if c, ok := p.relay.(*fpChain); ok && c.step > 0 {
				res.cutChains++
			}
		}
	}
	return res
}

// sameRun fails t unless got, run with the shortcuts on, did what want,
// the plain kernel, did.
func sameRun(t *testing.T, seed int64, want, got fpResult) {
	t.Helper()
	for i := range want.logs {
		w, g := want.logs[i], got.logs[i]
		for j := 0; j < len(w) && j < len(g); j++ {
			if g[j] != w[j] {
				t.Fatalf("seed %d node %d step %d: ran %+v, plain kernel ran %+v", seed, i, j, g[j], w[j])
			}
		}
		if len(g) != len(w) {
			t.Fatalf("seed %d node %d: %d log lines, plain kernel %d", seed, i, len(g), len(w))
		}
		if got.ledgers[i] != want.ledgers[i] {
			t.Fatalf("seed %d node %d: ledger %+v, plain kernel %+v", seed, i, got.ledgers[i], want.ledgers[i])
		}
	}
	if want.relays != 0 || want.waitStays != 0 || want.waitCharges != 0 {
		t.Fatalf("seed %d: the plain kernel ran %d relays, %d Cond-wait stays and %d Cond-wait charges in a parked proc's place", seed, want.relays, want.waitStays, want.waitCharges)
	}
	if got.events != want.events || got.end != want.end || got.limit != want.limit {
		t.Fatalf("seed %d: %d events ending at %v (limit error after %d), plain kernel %d at %v (%d)",
			seed, got.events, got.end, got.limit, want.events, want.end, want.limit)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Fatalf("seed %d: shard stats %+v, plain kernel %+v", seed, got.stats, want.stats)
	}
}

// Seeded random programs — procs mixing fine and coarse Advances, Yield,
// Cond wait/signal/broadcast, FIFO.Use/UseAsync, At, Route, Spawn, and
// SpendThen with a relay that only reports a second charge, with one that
// touches the node or with a chain of 1–4 steps that does, with a quarter
// of the nodes woken late across lanes and a Route staged before Run —
// must execute the same actors at the same times in the same order, count
// the same events, book the same ledgers, and leave the same control-plane
// statistics (epochs, stalls, routed, mailbox high-water, per-lane events)
// with the shortcuts on and off, on every driver; and so must the same
// programs cut off mid-run by an event limit, which must report the same
// count, with some chains cut between steps.
func TestFastPathsMatchPlainKernel(t *testing.T) {
	for _, k := range []struct {
		lanes    int
		parallel bool
	}{{0, false}, {1, false}, {4, false}, {4, true}, {16, false}, {16, true}} {
		t.Run(fmt.Sprintf("lanes%d-parallel%v", k.lanes, k.parallel), func(t *testing.T) {
			chances, same, chained, relays, pairParks, hops, stays, cut := 0, 0, 0, 0, 0, 0, 0, 0
			waitCharges, chargedStays, otherStays := 0, 0, 0
			for _, seed := range []int64{1, 2, 3, 5, 8, 13} {
				want := runFastPathProgram(t, seed, k.lanes, k.parallel, true, 0)
				got := runFastPathProgram(t, seed, k.lanes, k.parallel, false, 0)
				sameRun(t, seed, want, got)
				chances += got.runAheadChances
				same += got.sameInstantSeen
				chained += got.chainAppends
				relays += got.relays
				pairParks += got.pairParks
				hops += got.chainHops
				stays += got.waitStays
				waitCharges += got.waitCharges
				chargedStays += got.chargedStays
				otherStays += got.otherStays
				if got.chainAppends == 0 {
					t.Fatalf("seed %d: no push chained behind a heap entry", seed)
				}
				limit := want.events / 2
				want = runFastPathProgram(t, seed, k.lanes, k.parallel, true, limit)
				got = runFastPathProgram(t, seed, k.lanes, k.parallel, false, limit)
				if want.limit == 0 {
					t.Fatalf("seed %d: a limit of %d events was never crossed", seed, limit)
				}
				sameRun(t, seed, want, got)
				cut += got.cutChains
			}
			if chances == 0 || same == 0 || relays == 0 || pairParks == 0 || hops == 0 || stays == 0 || waitCharges == 0 || chargedStays == 0 || otherStays == 0 || cut == 0 {
				t.Fatalf("programs never exercised the shortcuts: %d run-ahead chances, %d same-instant sightings, %d relays, %d parked two-charge relays, %d chain steps, %d Cond-wait stays (%d after a charge, %d on another Cond) and %d Cond-wait charges run in a parked proc's place, %d chains cut by the limit", chances, same, relays, pairParks, hops, stays, chargedStays, otherStays, waitCharges, cut)
			}
			t.Logf("%d run-ahead chances, %d same-instant sightings, %d chained pushes, %d relays, %d parked two-charge relays, %d chain steps, %d Cond-wait stays (%d after a charge, %d on another Cond) and %d Cond-wait charges run in a parked proc's place, %d chains cut by the limit", chances, same, chained, relays, pairParks, hops, stays, chargedStays, otherStays, waitCharges, cut)
		})
	}
}

// The shard's shortcuts are fuzzed on the same programs: any seed, 1–16
// lanes, sequential or parallel epochs.
func FuzzShardMatchesPlain(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, lanes uint8, parallel bool) {
		n := 1 + int(lanes%16)
		sameRun(t, seed, runFastPathProgram(t, seed, n, parallel, true, 0), runFastPathProgram(t, seed, n, parallel, false, 0))
	})
}
