package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The kernel runs an event one of three ways — heap pop, same-instant
// queue, run-ahead Advance — and the last two are shortcuts that must be
// indistinguishable from the first. The oracle is the same kernel with
// noFastPath set: every event through the heap, every Advance through
// schedule + park.

const (
	fpNodes     = 16                    // logical nodes, block-mapped onto the lanes
	fpLookahead = 100 * time.Nanosecond // shard epoch width
	fpSteps     = 60                    // operations per root proc
	fpMaxEvents = 1_000_000             // far above any program here
)

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
	runAheadChances, sameInstantSeen int
}

func (n *fpNode) note(actor, what int) {
	if n.s.sameHead != nil {
		n.sameInstantSeen++
	}
	n.log = append(n.log, fpRec{n.s.now, actor, what})
}

// fpResult is what the two kernels must agree on.
type fpResult struct {
	logs   [][]fpRec
	events uint64
	end    Time
	stats  ShardStats // zero on a standalone scheduler

	runAheadChances, sameInstantSeen int
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
				}
				p.Advance(d)
			}
			for step := 0; step < steps; step++ {
				op := rng.Intn(14)
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
					n.fifo.Use(p, Duration(rng.Intn(30)))
				case 9:
					n.fifo.UseAsync(Duration(rng.Intn(30)), func() { n.note(id, 101) })
				case 10:
					// Now, later, or clamped up from the past.
					s.At(s.now+Time(rng.Intn(30))-5, func() { n.note(id, 102) })
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
	}
	return res
}

// Seeded random programs — procs mixing Advance, Yield, Cond wait/signal/
// broadcast, FIFO.Use/UseAsync, At, Route and Spawn — must execute the same
// actors at the same times in the same order, count the same events, and
// leave the same control-plane statistics (epochs, stalls, routed, mailbox
// high-water, per-lane events) with the shortcuts on and off, on every
// driver.
func TestFastPathsMatchPlainKernel(t *testing.T) {
	for _, k := range []struct {
		lanes    int
		parallel bool
	}{{0, false}, {1, false}, {4, false}, {4, true}, {16, false}, {16, true}} {
		t.Run(fmt.Sprintf("lanes%d-parallel%v", k.lanes, k.parallel), func(t *testing.T) {
			chances, same := 0, 0
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
			}
			if chances == 0 || same == 0 {
				t.Fatalf("programs never exercised the shortcuts: %d run-ahead chances, %d same-instant sightings", chances, same)
			}
			t.Logf("%d run-ahead chances, %d same-instant sightings", chances, same)
		})
	}
}
