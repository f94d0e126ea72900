package bench

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/sim"
	"repro/mpi"
	"repro/platform/registry"
)

// Scale sweep: the kernel driven standalone, as shard lanes, and as shard
// lanes on parallel workers, on a kernel-level dissemination barrier — the
// densest cross-node traffic pattern the simulator runs (every rank sends
// every round, every send crosses the fabric). The world is built directly
// on sim procs, Conds, and Route so the sweep exercises the kernel itself
// rather than the MPI engine above it.
//
// Every recorded field is a pure function of the seed — event counts,
// virtual time, the sharded control-plane counters, allocations per event —
// so the record is byte-reproducible. How fast the host executes those
// events is the benchmark module's question (sim.sched.ns_per_event,
// sim.shard.parallel_speedup), not this sweep's.
//
// Every point also cross-checks determinism: the standalone scheduler, the
// sequential shard, and the parallel shard must execute the identical event
// count and finish at the identical virtual time.

// scaleIters is the number of barrier iterations per world. Fixed (not an
// Opts knob) so the event counts in BENCH_scale.json are comparable across
// revisions.
const scaleIters = 10

// ScalePoint is one rank count in BENCH_scale.json: the same world under
// all three drivers, plus the sharded control-plane counters.
type ScalePoint struct {
	Ranks  int `json:"ranks"`
	Lanes  int `json:"lanes"`
	Rounds int `json:"rounds"` // dissemination rounds per barrier: ceil(log2 ranks)

	Events    uint64  `json:"events"`     // identical across kernels (asserted)
	VirtualUs float64 `json:"virtual_us"` // identical across kernels (asserted)
	Identical bool    `json:"identical"`  // events and virtual time matched across all kernels

	Epochs           uint64 `json:"epochs"`
	Stalls           uint64 `json:"stalls"`
	Routed           uint64 `json:"routed"`
	MailboxHighWater int    `json:"mailbox_high_water"`
}

// ScaleCollPoint is one full-MPI collective re-run at scale: the same
// operation on the same world, single-lane kernel versus sharded, with the
// per-rank finish times required to match exactly. The sweep covers every
// backend family — the mem reference at 1k+ ranks, plus the Meiko and
// cluster models at the rank counts their heavier per-message cost models
// afford — so the whole stack (engine, flow, collectives, media stages) is
// proven on the sharded kernel, not just raw sim procs.
type ScaleCollPoint struct {
	Backend   string  `json:"backend"` // the registry key the point ran on
	Op        string  `json:"op"`
	Ranks     int     `json:"ranks"`
	Bytes     int     `json:"bytes"`
	VirtualUs float64 `json:"virtual_us"`
	Identical bool    `json:"identical"` // per-rank virtual finish times match across kernels
}

// ScaleReport is the machine-readable record cmd/repro writes as
// BENCH_scale.json. The committed copy is the regression baseline CI
// compares against.
type ScaleReport struct {
	Points      []ScalePoint     `json:"points"`
	Collectives []ScaleCollPoint `json:"collectives"`
	// LaneAllocsPerOp is the steady-state heap allocations per executed
	// event on the sequential sharded kernel, measured as the malloc-count
	// delta between a short and a long run of the same world divided by the
	// event-count delta — setup and warmup costs subtract out, leaving the
	// scheduling hot path alone. Zero is the acceptance bar.
	LaneAllocsPerOp int64 `json:"lane_allocs_per_op"`
}

// scaleRun is one execution of the dissemination-barrier world.
type scaleRun struct {
	events  uint64
	virtual sim.Time
	stats   sim.ShardStats // zero value on a standalone scheduler
}

// dissemWorld builds and runs the dissemination barrier: ranks procs, each
// performing scaleIters barriers of ceil(log2 ranks) rounds; round k sends
// to (i + 2^k) mod ranks and waits for the matching arrival. lanes == 0
// selects a standalone scheduler; otherwise ranks are block-mapped onto
// lanes, and every send crosses lanes through Route with the fabric latency
// as the lookahead bound.
func dissemWorld(ranks, lanes, iters int, parallel bool) scaleRun {
	const lat = time.Microsecond
	K := bits.Len(uint(ranks - 1))
	root := sim.NewKernel(1, lanes, ranks, lat, 0)
	drive := root.Run
	sh := root.Shard()
	if sh != nil {
		sh.Parallel = parallel
		drive = sh.Run
	}
	scheds := make([]*sim.Scheduler, ranks)
	for i := range scheds {
		scheds[i] = root.Node(i, ranks)
	}
	conds := make([]*sim.Cond, ranks)
	got := make([][]int, ranks)
	for i := range conds {
		conds[i] = sim.NewCond(scheds[i])
		got[i] = make([]int, K)
	}
	// One reusable arrival closure per (dst, round): the counters are
	// monotonic, so the same closure serves every barrier iteration and the
	// steady-state send path allocates nothing.
	arrive := make([][]func(), ranks)
	for i := range arrive {
		arrive[i] = make([]func(), K)
		for k := 0; k < K; k++ {
			arrive[i][k] = func() {
				got[i][k]++
				conds[i].Signal()
			}
		}
	}
	for i := 0; i < ranks; i++ {
		scheds[i].Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			for it := 0; it < iters; it++ {
				for k := 0; k < K; k++ {
					dst := (i + 1<<k) % ranks
					p.Scheduler().RouteAfter(scheds[dst].LaneID(), lat, arrive[dst][k])
					for got[i][k] < it+1 {
						conds[i].Wait(p)
					}
				}
			}
		})
	}
	end, err := drive()
	if err != nil {
		panic(fmt.Sprintf("bench: scale world failed: %v", err))
	}
	r := scaleRun{virtual: end}
	if sh != nil {
		r.stats = sh.Stats()
		r.events = r.stats.Events
	} else {
		r.events = root.Events()
	}
	return r
}

// laneAllocsPerOp probes the sharded kernel's steady-state allocation rate:
// run the same world short and long, subtract. Setup (procs, conds,
// closures) and warmup (freelists, outbox capacity) are identical in both
// runs and cancel; the quotient is the per-event allocation count of the
// scheduling hot path plus the epoch-amortized control-plane residue
// (growth of the merge's staging slice), which sits far below one per
// event. The difference is signed: with nothing allocated per event the
// long run can come out a few objects below the short one. GC is disabled
// around the probe so assists don't blur the malloc counter.
func laneAllocsPerOp(ranks int) int64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(iters int) (uint64, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := dissemWorld(ranks, ranks, iters, false)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, r.events
	}
	m1, e1 := measure(4)
	m2, e2 := measure(40)
	if e2 <= e1 {
		panic("bench: scale alloc probe ran no steady-state events")
	}
	return (int64(m2) - int64(m1)) / int64(e2-e1)
}

// scaleCollBackends are the backend families the collective sweep proves on
// the sharded kernel, each at the rank counts its per-message cost model
// affords within a CI budget (the mem fabric is cheap enough for 1k+; the
// Meiko and cluster models charge full protocol costs per hop).
var scaleCollBackends = []struct {
	backend string
	ranks   []int
}{
	{"mem", []int{1024, 2048}},
	{"meiko/lowlatency", []int{256, 512}},
	{"cluster/tcp", []int{64, 128}},
}

// collAtScale runs one collective on the named backend at ranks, standalone
// and on ranks lanes, and reports the slowest rank's finish and whether the
// sharded kernel reproduced every rank's finish time.
func collAtScale(x *runner, backend, op string, ranks, n int) (ScaleCollPoint, error) {
	spec := registry.SpecFor(backend)
	spec.Ranks, spec.Seed = ranks, 1
	elapsed, same, err := reproduced([]kernel{{0, false}, {ranks, false}}, func(k kernel) ([]sim.Duration, error) {
		rep, err := x.launch(on(spec, k), func(c *mpi.Comm) error { return collBody(c, op, n, 1) })
		if err != nil {
			return nil, err
		}
		return rep.RankElapsed, nil
	}, slices.Equal)
	if err != nil {
		return ScaleCollPoint{}, err
	}
	return ScaleCollPoint{Backend: backend, Op: op, Ranks: ranks, Bytes: n,
		VirtualUs: float64(slices.Max(elapsed)) / 1e3, Identical: same}, nil
}

// scaleSweep is the rank sweep under every driver, the full-MPI collective
// re-runs, and the allocation probe.
func scaleSweep(Opts) sweep[ScaleReport] {
	return sweep[ScaleReport]{
		skeleton: func() ScaleReport {
			var rep ScaleReport
			for _, ranks := range []int{64, 256, 1024, 4096, 16384} {
				rep.Points = append(rep.Points, ScalePoint{Ranks: ranks, Lanes: ranks, Rounds: bits.Len(uint(ranks - 1))})
			}
			for _, bk := range scaleCollBackends {
				for _, ranks := range bk.ranks {
					for _, c := range []struct {
						op string
						n  int
					}{{"barrier", 0}, {"bcast", 1024}, {"allreduce", 1024}} {
						rep.Collectives = append(rep.Collectives, ScaleCollPoint{Backend: bk.backend, Op: c.op, Ranks: ranks, Bytes: c.n})
					}
				}
			}
			return rep
		},
		points: func(r *ScaleReport) []point {
			pts := each(r.Points, func(p ScalePoint) string { return key("scale", p.Ranks) }, func(_ *runner, p ScalePoint) (ScalePoint, error) {
				// The sharded run goes first: its control-plane counters are
				// recorded, and the standalone and parallel drivers must
				// reproduce its events and virtual time.
				run, same, _ := reproduced([]kernel{{p.Ranks, false}, {0, false}, {p.Ranks, true}},
					func(k kernel) (scaleRun, error) { return dissemWorld(p.Ranks, k.Lanes, scaleIters, k.Parallel), nil },
					func(a, b scaleRun) bool { return a.events == b.events && a.virtual == b.virtual })
				p.Events, p.VirtualUs, p.Identical = run.events, run.virtual.Duration().Seconds()*1e6, same
				p.Epochs, p.Stalls, p.Routed, p.MailboxHighWater = run.stats.Epochs, run.stats.Stalls, run.stats.Routed, run.stats.MailboxHighWater
				return p, nil
			})
			pts = append(pts, each(r.Collectives, func(p ScaleCollPoint) string { return key("scale", p.Backend, p.Op, p.Ranks) },
				func(x *runner, p ScaleCollPoint) (ScaleCollPoint, error) {
					return collAtScale(x, p.Backend, p.Op, p.Ranks, p.Bytes)
				})...)
			return append(pts, value(key("scale", "lane_allocs_per_op"), &r.LaneAllocsPerOp, func(*runner) (int64, error) {
				return laneAllocsPerOp(512), nil
			}))
		},
	}
}

// scaleGateRanks is the rank count a report must reach: a sweep that stops
// short of it proves nothing about scale.
const scaleGateRanks = 1024

// checkScale is the sweep's static floors: zero allocations per event,
// every kernel in agreement, a point at scaleGateRanks and every backend
// family present.
func checkScale(cur ScaleReport) []string {
	var fails []string
	if cur.LaneAllocsPerOp != 0 {
		fails = append(fails, fmt.Sprintf("lane scheduling allocates %d objects/event, want 0", cur.LaneAllocsPerOp))
	}
	atScale := false
	for _, p := range cur.Points {
		if !p.Identical {
			fails = append(fails, fmt.Sprintf("ranks=%d: kernels diverged (events or virtual time differ between single, sharded, and parallel)", p.Ranks))
		}
		atScale = atScale || p.Ranks >= scaleGateRanks
	}
	if !atScale {
		fails = append(fails, fmt.Sprintf("no >=%d-rank point in report", scaleGateRanks))
	}
	seenBackend := map[string]bool{}
	for _, p := range cur.Collectives {
		seenBackend[p.Backend] = true
		if !p.Identical {
			fails = append(fails, fmt.Sprintf("%s %s ranks=%d: per-rank finish times diverged between kernels", p.Backend, p.Op, p.Ranks))
		}
	}
	for _, bk := range scaleCollBackends {
		if !seenBackend[bk.backend] {
			fails = append(fails, fmt.Sprintf("no %s collective points in report", bk.backend))
		}
	}
	return fails
}
