package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// nudgeRun is what one run of a nudge program shows: when each rank left
// Finalize, every Wait's return in the order the kernel ran them, each
// rank's books, and the kernel's event count.
type nudgeRun struct {
	finish  []sim.Time
	order   []string
	books   []Acct
	events  uint64
	dropped int
}

// nudgeMsg is one message of a round: its ends, size, mode and whether
// the receiver Probes for it before posting its receives.
type nudgeMsg struct {
	src, dst, tag, size int
	mode                Mode
	probed              bool
}

// nudgeProgram draws a round-structured program: in each round every rank
// posts its sends and receives in a random order, then waits on them in
// another, so no wait can deadlock. A probed message is its sender's first
// to that receiver in the round: its receiver Probes for it, then posts
// its receive, after posting everything else, so every receive the
// sender's earlier eager sends need (and their credits) is posted. The
// last round may leave sends unwaited for Finalize to drain.
func nudgeProgram(rng *rand.Rand, n, eager int) [][]nudgeMsg {
	rounds := make([][]nudgeMsg, 2+rng.Intn(3))
	tag := 0
	for r := range rounds {
		first := map[[2]int]bool{}
		src, dst := 0, 1
		for range 1 + rng.Intn(3*n) {
			if rng.Intn(2) == 0 { // else a burst on the last pair, to spend its credits
				src, dst = rng.Intn(n), rng.Intn(n-1)
				if dst >= src {
					dst++
				}
			}
			sizes := []int{0, 1, eager / 2, eager, eager + 1, 3 * eager}
			m := nudgeMsg{src: src, dst: dst, tag: tag, size: sizes[rng.Intn(len(sizes))]}
			tag++
			if rng.Intn(4) == 0 {
				m.mode = ModeSync
			}
			if key := [2]int{src, dst}; !first[key] {
				first[key] = true
				m.probed = rng.Intn(2) == 0
			}
			rounds[r] = append(rounds[r], m)
		}
	}
	return rounds
}

// runNudgeProgram runs prog on n ranks of a MemFabric with the engines'
// nudgeAll set to all.
func runNudgeProgram(t *testing.T, seed int64, n, eager, credits int, prog [][]nudgeMsg, all bool) nudgeRun {
	t.Helper()
	s := sim.NewScheduler(1)
	fab := NewMemFabric(s, 7*time.Microsecond, eager)
	fab.Credits, fab.PollCost = credits, 2*time.Microsecond
	costs := EngineCosts{Match: 15 * time.Microsecond, CopyBase: 3 * time.Microsecond, CopyPerByte: 10,
		SendOverhead: 4 * time.Microsecond, RecvOverhead: 5 * time.Microsecond}
	engs := make([]*Engine, n)
	for i := range engs {
		engs[i] = NewEngine(s, i, n, costs)
		engs[i].nudgeAll = all
		fab.Attach(engs[i])
	}
	res := nudgeRun{finish: make([]sim.Time, n)}
	for i, e := range engs {
		rng := rand.New(rand.NewSource(seed*100 + int64(i)))
		s.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			p.Ledger = &e.Acct().Ledger
			for r, round := range prog {
				var ops []*Request
				var names []string
				post := rng.Perm(len(round))
				for k, m := range round {
					if m.dst == i && m.probed {
						post = append(post, k) // after every send, so Probes cannot wait on each other
					}
				}
				for j, k := range post {
					m := round[k]
					var req *Request
					var err error
					switch {
					case i == m.src:
						req, err = e.Isend(p, m.dst, m.tag, 0, m.mode, payload(m.size))
					case i == m.dst && m.probed == (j >= len(round)):
						if m.probed {
							st, err := e.Probe(p, m.src, m.tag, 0)
							if err != nil || st.Tag != m.tag || st.Count != m.size {
								t.Errorf("rank %d Probe(%d, %d) = %+v, %v", i, m.src, m.tag, st, err)
							}
						}
						req, err = e.Irecv(p, m.src, m.tag, 0, make([]byte, m.size))
					default:
						continue
					}
					if err != nil {
						t.Errorf("rank %d round %d: %v", i, r, err)
						return
					}
					ops = append(ops, req)
					names = append(names, fmt.Sprintf("tag%d/%d->%d", m.tag, m.src, m.dst))
					if rng.Intn(3) == 0 {
						e.Acct().Spend(p, sim.Compute, sim.Duration(rng.Intn(40))*time.Microsecond)
					}
				}
				for _, k := range rng.Perm(len(ops)) {
					if r == len(prog)-1 && !ops[k].IsRecv && rng.Intn(2) == 0 {
						continue // Finalize waits for the wire to take it
					}
					if _, err := e.Wait(p, ops[k]); err != nil {
						t.Errorf("rank %d Wait(%s): %v", i, names[k], err)
					}
					res.order = append(res.order, fmt.Sprintf("%v rank%d %s", p.Now(), i, names[k]))
				}
			}
			e.Finalize(p)
			res.finish[i] = p.Now()
		})
	}
	s.MaxEvents = 1_000_000
	if _, err := s.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for _, e := range engs {
		res.books = append(res.books, *e.Acct())
		res.dropped += int(e.nudgesDropped)
	}
	res.events = s.Events()
	return res
}

// The oracle for Nudge's rule: a nudge dropped while the rank waits on a
// pending request is a wake that would have polled an empty wire and
// parked again at the same instant. Random programs on 2–6 ranks (eager
// and rendezvous sizes, synchronous sends, Probe ahead of the receives,
// sends left for Finalize, unlimited and scarce credits) give the same
// finish times, Wait order and books whether every nudge wakes the rank or
// not; dropping them must save events on some seed, and must happen.
func TestNudgeDropsOnlyNoOpWakes(t *testing.T) {
	const eager = 64
	var saved, dropped int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		prog := nudgeProgram(rng, n, eager)
		for _, credits := range []int{0, eager} {
			all := runNudgeProgram(t, seed, n, eager, credits, prog, true)
			some := runNudgeProgram(t, seed, n, eager, credits, prog, false)
			where := fmt.Sprintf("seed %d, %d ranks, credits %d", seed, n, credits)
			if !reflect.DeepEqual(all.finish, some.finish) {
				t.Errorf("%s: finish times %v with every nudge, %v with dropped ones", where, all.finish, some.finish)
			}
			if !reflect.DeepEqual(all.order, some.order) {
				t.Errorf("%s: Wait order differs:\n%v\n%v", where, all.order, some.order)
			}
			if !reflect.DeepEqual(all.books, some.books) {
				t.Errorf("%s: books differ", where)
			}
			if all.dropped != 0 {
				t.Errorf("%s: %d nudges dropped with nudgeAll set", where, all.dropped)
			}
			if some.events > all.events {
				t.Errorf("%s: %d events, %d with every nudge", where, some.events, all.events)
			}
			if some.events < all.events {
				saved++
			}
			dropped += some.dropped
		}
	}
	if saved == 0 || dropped == 0 {
		t.Fatalf("no run saved an event (%d) or dropped a nudge (%d): the oracle checked nothing", saved, dropped)
	}
	t.Logf("%d of 24 runs saved events; %d nudges dropped", saved, dropped)
}
