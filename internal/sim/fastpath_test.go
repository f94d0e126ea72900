package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// The kernel runs an event one of three ways — heap pop, same-instant
// queue, run-ahead Advance — and the last two are shortcuts that must be
// indistinguishable from the first, as must the heap's own shortcut of
// chaining same-t pushes behind one entry. The oracle is the same kernel
// with noFastPath set: every event through the heap, one entry each, every
// Advance through schedule + park.

const (
	fpNodes     = 16                    // logical nodes, block-mapped onto the lanes
	fpLookahead = 100 * time.Nanosecond // shard epoch width
	fpGrid      = 50                    // coarse instants procs meet at, so heap chains form
	fpSteps     = 60                    // operations per root proc
	fpMaxEvents = 1_000_000             // far above any program here
)

// A push for a later instant either enters the heap or links behind the
// previous push; either way the driver must pop in exact (t, seq) order.
// Seeded interleavings of pushes to 1–4 distinct future instants,
// same-instant and clamped events, run-ahead Advances and pops are checked
// against a sort of everything queued.
func TestEventQueueChainsMatchSort(t *testing.T) {
	type key struct {
		t   Time
		seq uint64
	}
	nop := func() {}
	chains := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(seed)
		instants := Time(1 + rng.Intn(4))
		var queued []key
		push := func(at Time) {
			if willChain(s, at) {
				chains++
			}
			if rng.Intn(2) == 0 {
				s.At(at, nop)
			} else {
				s.After(Duration(at-s.now), nop)
			}
			queued = append(queued, key{max(at, s.now), s.seq})
		}
		pop := func() {
			sort.Slice(queued, func(i, j int) bool {
				return queued[i].t < queued[j].t || queued[i].t == queued[j].t && queued[i].seq < queued[j].seq
			})
			e := s.pop()
			if got := (key{e.t, e.seq}); got != queued[0] {
				t.Fatalf("seed %d: popped %+v, sort gives %+v (queued %v)", seed, got, queued[0], queued)
			}
			queued = queued[1:]
			s.runEvent(e)
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // one of the next few grid instants
				push((s.now/10 + 1 + Time(rng.Intn(int(instants)))) * 10)
			case op == 5: // same instant, or clamped up from the past
				push(s.now - Time(rng.Intn(2)))
			case op == 6: // Advance: run ahead, or schedule the wakeup
				if at := s.now + Time(rng.Intn(25)); !s.runAhead(at) {
					push(at)
				} else {
					for _, k := range queued {
						if k.t <= at {
							t.Fatalf("seed %d: ran ahead to %v over queued %+v", seed, at, k)
						}
					}
				}
			default:
				if len(queued) != 0 {
					pop()
				}
			}
		}
		for len(queued) != 0 {
			pop()
		}
		if _, ok := s.pending(); ok {
			t.Fatalf("seed %d: the kernel still holds events the sort does not", seed)
		}
	}
	if chains == 0 {
		t.Fatal("no push ever chained")
	}
	t.Logf("%d chained pushes", chains)
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
	s     *Scheduler
	conds [3]*Cond
	fifo  *FIFO
	log   []fpRec

	// How often the program met each shortcut's precondition, read from the
	// kernel's own state, so a run that never exercised them cannot pass.
	runAheadChances, sameInstantSeen, chainAppends int
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

// fpResult is what the two kernels must agree on.
type fpResult struct {
	logs   [][]fpRec
	events uint64
	end    Time
	stats  ShardStats // zero on a standalone scheduler

	runAheadChances, sameInstantSeen, chainAppends int
}

// runFastPathProgram runs the seeded random program on the given kernel
// (lanes 0: standalone scheduler) and reports what happened. Every actor
// draws from its own stream, so the program is a fixed function of the
// seed and only the kernel's ordering is under test.
func runFastPathProgram(t *testing.T, seed int64, lanes int, parallel, slow bool) fpResult {
	t.Helper()
	var root *Scheduler
	var sh *Shard
	if lanes == 0 {
		root = NewScheduler(seed)
		root.MaxEvents = fpMaxEvents
		root.noFastPath = slow
	} else {
		sh = NewShard(seed, lanes, fpLookahead)
		sh.MaxEvents, sh.Parallel = fpMaxEvents, parallel
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
			children := 0
			advance := func(d Duration) {
				if at := s.now + Time(d); s.sameHead == nil && (len(s.events) == 0 || s.events[0].t > at) {
					n.runAheadChances++
				} else {
					n.chains(at)
				}
				p.Advance(d)
			}
			for step := 0; step < steps; step++ {
				op := rng.Intn(16)
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
				}
			}
			n.note(id, 200)
		}
	}
	for i, n := range nodes {
		for k := 1; k <= 2; k++ {
			id := (i+1)*10 + k
			n.s.Spawn(fmt.Sprintf("p%d", id), body(n, id, 0, fpSteps))
		}
	}

	var res fpResult
	var err error
	if sh != nil {
		res.end, err = sh.Run()
		res.events, res.stats = sh.Events(), sh.Stats()
	} else {
		res.end, err = root.Run()
		res.events = root.Events()
	}
	if err != nil {
		t.Fatalf("seed %d lanes %d parallel %v slow %v: %v", seed, lanes, parallel, slow, err)
	}
	for _, n := range nodes {
		res.logs = append(res.logs, n.log)
		res.runAheadChances += n.runAheadChances
		res.sameInstantSeen += n.sameInstantSeen
		res.chainAppends += n.chainAppends
	}
	return res
}

// Seeded random programs — procs mixing fine and coarse Advances, Yield,
// Cond wait/signal/broadcast, FIFO.Use/UseAsync, At, Route and Spawn — must
// execute the same actors at the same times in the same order, count the
// same events, and leave the same control-plane statistics (epochs, stalls,
// routed, mailbox high-water, per-lane events) with the shortcuts on and
// off, on every driver.
func TestFastPathsMatchPlainKernel(t *testing.T) {
	for _, k := range []struct {
		lanes    int
		parallel bool
	}{{0, false}, {1, false}, {4, false}, {4, true}, {16, false}, {16, true}} {
		t.Run(fmt.Sprintf("lanes%d-parallel%v", k.lanes, k.parallel), func(t *testing.T) {
			chances, same, chained := 0, 0, 0
			for _, seed := range []int64{1, 2, 3, 5, 8, 13} {
				want := runFastPathProgram(t, seed, k.lanes, k.parallel, true)
				got := runFastPathProgram(t, seed, k.lanes, k.parallel, false)
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
				}
				if got.events != want.events || got.end != want.end {
					t.Fatalf("seed %d: %d events ending at %v, plain kernel %d at %v", seed, got.events, got.end, want.events, want.end)
				}
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Fatalf("seed %d: shard stats %+v, plain kernel %+v", seed, got.stats, want.stats)
				}
				chances += got.runAheadChances
				same += got.sameInstantSeen
				chained += got.chainAppends
				if got.chainAppends == 0 {
					t.Fatalf("seed %d: no push chained behind a heap entry", seed)
				}
			}
			if chances == 0 || same == 0 {
				t.Fatalf("programs never exercised the shortcuts: %d run-ahead chances, %d same-instant sightings", chances, same)
			}
			t.Logf("%d run-ahead chances, %d same-instant sightings, %d chained pushes", chances, same, chained)
		})
	}
}
