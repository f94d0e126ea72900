package bench

import (
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/mpi"
	"repro/platform/registry"
)

// Scale sweep: the kernel driven standalone, as shard lanes, and as shard
// lanes on parallel workers, on a kernel-level dissemination barrier — the
// densest cross-node traffic pattern the simulator runs (every rank sends
// every round, every send crosses the fabric). The world is built directly
// on sim procs, Conds, and Route so the sweep measures the kernel itself
// rather than the MPI engine above it. The sharded-over-single speedup is
// recorded but not floored: both run the same proc switch, so what is left
// is heap partitioning.
//
// Regression arms, none of which compares host speed across machines:
//   - Allocations per event in the sharded kernel's steady state: exact
//     and deterministic; any nonzero value fails outright.
//   - The deterministic fields of every point (events, virtual time, epochs,
//     stalls, routed envelopes, mailbox depth; virtual time per collective
//     point) against the committed baseline, exactly.
//   - The pinned-worker parallel executor against the sequential sharded
//     kernel, both measured in the same run: never meaningfully slower.
//     Absolute events/sec is recorded for trajectory plots but never gated —
//     it is hardware-bound and drifts ±15% between runs on one machine.
//
// Every point also cross-checks determinism: the standalone scheduler, the
// sequential shard, and the parallel shard must execute the identical event
// count and finish at the identical virtual time.

// scaleIters is the number of barrier iterations per world. Fixed (not an
// Opts knob) so the event counts in BENCH_scale.json are comparable across
// revisions.
const scaleIters = 10

// scaleSchemaVersion identifies the BENCH_scale.json layout. Version 0 is
// the original mem-only record (no version field); version 1 adds the
// measuring machine's GOMAXPROCS, the per-point parallel speedup, and the
// per-backend collective points. A version-0 baseline still decodes, its
// backendless collective points reading as "mem".
const scaleSchemaVersion = 1

// ScalePoint is one rank count in BENCH_scale.json: both drivers measured
// on the same world, plus the sharded control-plane counters.
type ScalePoint struct {
	Ranks  int `json:"ranks"`
	Lanes  int `json:"lanes"`
	Rounds int `json:"rounds"` // dissemination rounds per barrier: ceil(log2 ranks)

	Events    uint64  `json:"events"`     // identical across kernels (asserted)
	VirtualUs float64 `json:"virtual_us"` // identical across kernels (asserted)
	Identical bool    `json:"identical"`  // events and virtual time matched across all kernels

	SingleEvPerSec   float64 `json:"single_ev_per_sec"`
	ShardEvPerSec    float64 `json:"shard_ev_per_sec"`
	ParallelEvPerSec float64 `json:"parallel_ev_per_sec"`
	Speedup          float64 `json:"speedup"` // sharded (sequential) over single, same machine
	// ParallelSpeedup is the pinned-worker executor over the sequential
	// sharded kernel at the 1 µs lookahead — the focused Shard.Parallel
	// regression arm. On a single-core machine it measures pure overhead
	// (one channel handoff per epoch) and hovers near 1.0.
	ParallelSpeedup float64 `json:"parallel_speedup"`

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
// proven on the sharded kernel, not just raw sim procs. The fault sweeps
// stay on the single-lane kernel: the injector's RNG stream is world-global,
// so the registry rejects faults combined with lanes.
type ScaleCollPoint struct {
	// Backend is the registry key the point ran on; empty in schema-v0
	// baselines, which only swept "mem".
	Backend   string  `json:"backend,omitempty"`
	Op        string  `json:"op"`
	Ranks     int     `json:"ranks"`
	Bytes     int     `json:"bytes"`
	VirtualUs float64 `json:"virtual_us"`
	Identical bool    `json:"identical"` // per-rank virtual finish times match across kernels
	Speedup   float64 `json:"speedup"`   // sharded over single wall clock, same machine
}

// collBackend reports a point's backend, naming "mem" for schema-v0
// baselines that predate the field.
func collBackend(p ScaleCollPoint) string {
	if p.Backend == "" {
		return "mem"
	}
	return p.Backend
}

// ScaleReport is the machine-readable record cmd/repro writes as
// BENCH_scale.json. The committed copy is the regression baseline CI
// compares against (see checkScale).
type ScaleReport struct {
	// SchemaVersion is scaleSchemaVersion at write time; 0 marks the
	// original mem-only layout.
	SchemaVersion int `json:"schema_version,omitempty"`
	// MaxProcs is GOMAXPROCS on the measuring machine: the context the
	// recorded parallel speedup has to be read in.
	MaxProcs    int              `json:"max_procs,omitempty"`
	Points      []ScalePoint     `json:"points"`
	Collectives []ScaleCollPoint `json:"collectives"`
	// LaneAllocsPerOp is the steady-state heap allocations per executed
	// event on the sequential sharded kernel, measured as the malloc-count
	// delta between a short and a long run of the same world divided by the
	// event-count delta — setup and warmup costs subtract out, leaving the
	// scheduling hot path alone. Zero is the acceptance bar.
	LaneAllocsPerOp int64 `json:"lane_allocs_per_op"`
}

// scaleRun is one measured execution of the dissemination-barrier world.
type scaleRun struct {
	events  uint64
	virtual sim.Time
	wall    time.Duration
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
			i, k := i, k
			arrive[i][k] = func() {
				got[i][k]++
				conds[i].Signal()
			}
		}
	}
	for i := 0; i < ranks; i++ {
		i := i
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
	start := time.Now()
	end, err := drive()
	if err != nil {
		panic(fmt.Sprintf("bench: scale world failed: %v", err))
	}
	r := scaleRun{virtual: end, wall: time.Since(start)}
	if sh != nil {
		r.stats = sh.Stats()
		r.events = r.stats.Events
	} else {
		r.events = root.Events()
	}
	return r
}

// bestOf runs fn reps times and keeps the fastest wall clock (virtual time
// and event counts are deterministic, so repetitions only shed scheduler
// and allocator noise).
func bestOf(reps int, fn func() scaleRun) scaleRun {
	best := fn()
	for i := 1; i < reps; i++ {
		if r := fn(); r.wall < best.wall {
			best.wall = r.wall
		}
	}
	return best
}

// laneAllocsPerOp probes the sharded kernel's steady-state allocation rate:
// run the same world short and long, subtract. Setup (procs, conds,
// closures) and warmup (freelists, outbox capacity) are identical in both
// runs and cancel; the quotient is the per-event allocation count of the
// scheduling hot path plus the epoch-amortized control-plane residue
// (sort.Slice scratch), which sits far below one per event. GC is disabled
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
	return int64((m2 - m1) / (e2 - e1))
}

// collAtScale runs one collective on the named backend at ranks on the
// given kernel (lanes 0 = single) and reports per-rank finish times plus
// wall clock.
func collAtScale(backend, op string, ranks, lanes, n int) ([]sim.Duration, time.Duration, error) {
	spec := registry.SpecFor(backend)
	spec.Ranks, spec.Lanes, spec.Seed = ranks, lanes, 1
	w, err := registry.Build(spec)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	rep, err := mpi.Launch(w, func(c *mpi.Comm) error { return collBody(c, op, n, 1) })
	if err != nil {
		return nil, 0, err
	}
	return rep.RankElapsed, time.Since(start), nil
}

// scaleCollBackends are the backend families the collective sweep proves on
// the sharded kernel, each at the rank counts its per-message cost model
// affords within a CI budget (the mem fabric is cheap enough for 1k+; the
// Meiko and cluster models charge full protocol costs per hop).
var scaleCollBackends = []struct {
	backend          string
	ranks, fullRanks int
}{
	{"mem", 1024, 2048},
	{"meiko/lowlatency", 256, 512},
	{"cluster/tcp", 64, 128},
}

// scaleCollectives re-runs the headline collectives through the full MPI
// stack standalone and sharded, on every backend family.
func scaleCollectives(full bool) ([]ScaleCollPoint, error) {
	var out []ScaleCollPoint
	for _, bk := range scaleCollBackends {
		ranksList := []int{bk.ranks}
		if full {
			ranksList = append(ranksList, bk.fullRanks)
		}
		for _, ranks := range ranksList {
			for _, c := range []struct {
				op string
				n  int
			}{{"barrier", 0}, {"bcast", 1024}, {"allreduce", 1024}} {
				single, w0, err := collAtScale(bk.backend, c.op, ranks, 0, c.n)
				if err != nil {
					return nil, fmt.Errorf("%s %s ranks=%d single: %w", bk.backend, c.op, ranks, err)
				}
				shard, w1, err := collAtScale(bk.backend, c.op, ranks, ranks, c.n)
				if err != nil {
					return nil, fmt.Errorf("%s %s ranks=%d sharded: %w", bk.backend, c.op, ranks, err)
				}
				p := ScaleCollPoint{Backend: bk.backend, Op: c.op, Ranks: ranks, Bytes: c.n, Identical: len(single) == len(shard)}
				var max sim.Duration
				for i := range single {
					if i < len(shard) && single[i] != shard[i] {
						p.Identical = false
					}
					if single[i] > max {
						max = single[i]
					}
				}
				p.VirtualUs = float64(max) / 1e3
				if w1 > 0 {
					p.Speedup = w0.Seconds() / w1.Seconds()
				}
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// ScaleBench runs the rank sweep under every driver, the full-MPI collective
// re-runs, and the allocation probe.
func ScaleBench(o Opts) (ScaleReport, error) {
	o = o.Norm()
	rankPoints := []int{64, 256, 1024, 4096}
	if o.Full {
		rankPoints = append(rankPoints, 16384)
	}
	rep := ScaleReport{SchemaVersion: scaleSchemaVersion, MaxProcs: runtime.GOMAXPROCS(0)}
	for _, ranks := range rankPoints {
		single := bestOf(o.Iters, func() scaleRun { return dissemWorld(ranks, 0, scaleIters, false) })
		shard := bestOf(o.Iters, func() scaleRun { return dissemWorld(ranks, ranks, scaleIters, false) })
		par := bestOf(o.Iters, func() scaleRun { return dissemWorld(ranks, ranks, scaleIters, true) })
		p := ScalePoint{
			Ranks:     ranks,
			Lanes:     ranks,
			Rounds:    bits.Len(uint(ranks - 1)),
			Events:    single.events,
			VirtualUs: single.virtual.Duration().Seconds() * 1e6,
			Identical: single.events == shard.events && shard.events == par.events &&
				single.virtual == shard.virtual && shard.virtual == par.virtual,
			SingleEvPerSec:   float64(single.events) / single.wall.Seconds(),
			ShardEvPerSec:    float64(shard.events) / shard.wall.Seconds(),
			ParallelEvPerSec: float64(par.events) / par.wall.Seconds(),
			Epochs:           shard.stats.Epochs,
			Stalls:           shard.stats.Stalls,
			Routed:           shard.stats.Routed,
			MailboxHighWater: shard.stats.MailboxHighWater,
		}
		if p.SingleEvPerSec > 0 {
			p.Speedup = p.ShardEvPerSec / p.SingleEvPerSec
		}
		if p.ShardEvPerSec > 0 {
			p.ParallelSpeedup = p.ParallelEvPerSec / p.ShardEvPerSec
		}
		rep.Points = append(rep.Points, p)
	}
	coll, err := scaleCollectives(o.Full)
	if err != nil {
		return rep, err
	}
	rep.Collectives = coll
	rep.LaneAllocsPerOp = laneAllocsPerOp(512)
	return rep, nil
}

// FormatScale renders the report as a table.
func FormatScale(r ScaleReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Kernel scale sweep (dissemination barrier, %d iterations)\n", scaleIters)
	fmt.Fprintf(&b, "  %6s %6s %10s %12s %12s %12s %8s %7s %9s %5s\n",
		"ranks", "lanes", "events", "single ev/s", "shard ev/s", "par ev/s", "speedup", "epochs", "routed", "ident")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %6d %6d %10d %12.0f %12.0f %12.0f %7.2fx %7d %9d %5v\n",
			p.Ranks, p.Lanes, p.Events, p.SingleEvPerSec, p.ShardEvPerSec, p.ParallelEvPerSec,
			p.Speedup, p.Epochs, p.Routed, p.Identical)
	}
	if len(r.Collectives) > 0 {
		fmt.Fprintf(&b, "  full-MPI collectives at scale (sharded vs single kernel)\n")
		fmt.Fprintf(&b, "  %-18s %10s %6s %8s %12s %8s %5s\n", "backend", "op", "ranks", "bytes", "virtual µs", "speedup", "ident")
		for _, p := range r.Collectives {
			fmt.Fprintf(&b, "  %-18s %10s %6d %8d %12.1f %7.2fx %5v\n", collBackend(p), p.Op, p.Ranks, p.Bytes, p.VirtualUs, p.Speedup, p.Identical)
		}
	}
	fmt.Fprintf(&b, "  lane scheduling steady state: %d allocs/event\n", r.LaneAllocsPerOp)
	return b.String()
}

// Static floors the gate enforces regardless of baseline.
const (
	scaleGateRanks = 1024 // the parallel floor applies at the largest point from this scale up
	// The pinned-worker executor must never be meaningfully slower than the
	// sequential sharded kernel (slack absorbs the per-epoch handoff and
	// timer noise).
	scaleParSlack = 0.90
)

// swept keeps the baseline points the current run also swept: a -full
// baseline carries larger rank counts than a plain run, and those are not
// drops.
func swept[P any](base, cur []P, key func(P) string) []P {
	have := make(map[string]bool, len(cur))
	for _, p := range cur {
		have[key(p)] = true
	}
	var out []P
	for _, p := range base {
		if have[key(p)] {
			out = append(out, p)
		}
	}
	return out
}

// checkScale gates a fresh report: the static floors always, and against a
// baseline the deterministic fields exactly. Allocation counts are exact,
// so any increase fails. No arm takes a tolerance: nothing the scale gate
// compares across runs is hardware-bound.
func checkScale(cur ScaleReport, base *ScaleReport) []string {
	var fails []string
	if cur.LaneAllocsPerOp != 0 {
		fails = append(fails, fmt.Sprintf("lane scheduling allocates %d objects/event, want 0", cur.LaneAllocsPerOp))
	}
	var gatePoint *ScalePoint
	for i := range cur.Points {
		p := &cur.Points[i]
		if !p.Identical {
			fails = append(fails, fmt.Sprintf("ranks=%d: kernels diverged (events or virtual time differ between single, sharded, and parallel)", p.Ranks))
		}
		if p.Ranks >= scaleGateRanks {
			gatePoint = p
		}
	}
	if gatePoint == nil {
		fails = append(fails, fmt.Sprintf("no >=%d-rank point in report", scaleGateRanks))
	} else if gatePoint.ParallelEvPerSec < gatePoint.ShardEvPerSec*scaleParSlack {
		fails = append(fails, fmt.Sprintf("ranks=%d parallel executor %.0f ev/s slower than sequential sharded %.0f ev/s",
			gatePoint.Ranks, gatePoint.ParallelEvPerSec, gatePoint.ShardEvPerSec))
	}
	seenBackend := map[string]bool{}
	for _, p := range cur.Collectives {
		seenBackend[collBackend(p)] = true
		if !p.Identical {
			fails = append(fails, fmt.Sprintf("%s %s ranks=%d: per-rank finish times diverged between kernels", collBackend(p), p.Op, p.Ranks))
		}
	}
	for _, bk := range scaleCollBackends {
		if !seenBackend[bk.backend] {
			fails = append(fails, fmt.Sprintf("no %s collective points in report", bk.backend))
		}
	}
	if base == nil {
		return fails
	}
	if cur.LaneAllocsPerOp > base.LaneAllocsPerOp {
		fails = append(fails, fmt.Sprintf("lane allocs/event %d exceeds baseline %d", cur.LaneAllocsPerOp, base.LaneAllocsPerOp))
	}
	pointKey := func(p ScalePoint) string { return fmt.Sprintf("ranks=%d", p.Ranks) }
	fails = append(fails, drift("point", cur.Points, swept(base.Points, cur.Points, pointKey), pointKey, 0,
		lower("events", func(p ScalePoint) float64 { return float64(p.Events) }),
		lower("virtual_us", func(p ScalePoint) float64 { return p.VirtualUs }),
		lower("epochs", func(p ScalePoint) float64 { return float64(p.Epochs) }),
		lower("stalls", func(p ScalePoint) float64 { return float64(p.Stalls) }),
		lower("routed", func(p ScalePoint) float64 { return float64(p.Routed) }),
		lower("mailbox_high_water", func(p ScalePoint) float64 { return float64(p.MailboxHighWater) }))...)
	collKey := func(p ScaleCollPoint) string {
		return fmt.Sprintf("%s %s ranks=%d bytes=%d", collBackend(p), p.Op, p.Ranks, p.Bytes)
	}
	return append(fails, drift("collective", cur.Collectives, swept(base.Collectives, cur.Collectives, collKey), collKey, 0,
		lower("virtual_us", func(p ScaleCollPoint) float64 { return p.VirtualUs }))...)
}
