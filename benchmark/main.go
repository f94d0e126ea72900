// Command benchmark measures the whole MPI stack on two clocks — host
// time and simulated time — end to end and layer by layer, on six fixed
// full-stack workloads. See README.md for what each workload and metric is
// for; BENCHMARK.json at the repository root names them for the driver.
//
// The benchmark only looks at the program from outside: it times calls
// into public functions, reads what mpi.Report exposes, and samples the
// CPU. It claims nothing itself; it makes later claims falsifiable.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"repro/internal/workload"

	// Worlds are built through the registry; platforms register on import.
	_ "repro/platform/cluster"
	_ "repro/platform/meiko"
)

func main() {
	name := flag.String("workload", "all", "workload to run (see BENCHMARK.json), or all")
	seed := flag.Int64("seed", 1, "seed for the world and the workload's inputs")
	seconds := flag.Float64("seconds", 10, "how long the measured repetitions run")
	traced := flag.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	scale := flag.Float64("scale", 1, "multiplier on every workload's step count (tests shrink it)")
	compare := flag.Bool("compare", false, "compare two files of captured output: -compare A B")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A B")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	ran := false
	for _, b := range workloads(*seed, *scale) {
		if *name != "all" && *name != b.Name {
			continue
		}
		ran = true
		var res *result
		var err error
		if *traced == 0 {
			res, err = timedPass(b, *seconds)
		} else {
			res, err = tracedPass(b, *seconds, fmt.Sprintf(".bench_build/spans-%s.json", b.Name))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		res.print(os.Stdout, os.Stderr, stamp{
			Workload: b.Name, Seed: *seed, Seconds: *seconds, Trace: *traced, Scale: *scale,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(),
			Ops: b.ops(), Samples: res.Samples, SimDigest: res.Digest, Notes: res.Notes,
		})
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
}

// commit reports the revision the binary was built from, when the build
// ran inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// result is one workload's outcome in one pass.
type result struct {
	Attempted, Failed int
	Samples           int    // measured repetitions behind each median
	Digest            string // of the workload trace; identical across repetitions
	Metrics           metrics
	Notes             []string // correctness violations, with rank/op context
}

// stamp records what a result was measured on, so a claim can be
// re-checked; -compare pairs each result line with the stamp before it.
type stamp struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      int      `json:"trace"`
	Scale      float64  `json:"scale"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	Commit     string   `json:"commit"`
	Ops        int      `json:"ops"`
	Samples    int      `json:"samples"`
	SimDigest  string   `json:"sim_digest"`
	Notes      []string `json:"notes,omitempty"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the table people read to errw, and to w the stamp line
// followed by the result line the driver parses.
func (r *result) print(w, errw *os.File, st stamp) {
	fmt.Fprintf(errw, "%s seed=%d trace=%d ops=%d samples=%d digest=%s\n",
		st.Workload, st.Seed, st.Trace, st.Ops, st.Samples, st.SimDigest)
	line := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range r.Metrics {
		fmt.Fprintf(errw, "  %-42s %16.6g %s\n", m.Name, m.Value, m.Unit)
		line.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	for _, n := range r.Notes {
		fmt.Fprintln(errw, "  FAILED:", n)
	}
	for _, v := range []any{map[string]stamp{"stamp": st}, line} {
		out, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(errw, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "%s\n", out)
	}
}

// check books a repetition into the result: its operations were attempted,
// its digest must equal the first repetition's, and no rank may have
// recorded a protocol error. A repetition that breaks determinism fails all
// its operations.
func (r *result) check(b benchWorkload, what string, p *rep) {
	r.Attempted += b.ops()
	if r.Digest == "" {
		r.Digest = p.Digest
	}
	if p.Digest != r.Digest {
		r.Failed += b.ops()
		r.Notes = append(r.Notes, fmt.Sprintf("%s %s: trace digest %s differs from the first repetition's %s", b.Name, what, p.Digest, r.Digest))
	}
	for _, e := range p.Res.Report.Protocol {
		r.Failed++
		r.Notes = append(r.Notes, fmt.Sprintf("%s %s: protocol error: %v", b.Name, what, e))
	}
}

// setups is how many times a run sets up from a cold heap; setup_s is
// their median.
const setups = 3

// minReps is the fewest measured repetitions a pass takes, however short
// --seconds is.
const minReps = 3

// timedPass measures b end to end with all tracing off: setups cold
// set-ups (build plus a warm-up repetition), then back-to-back repetitions
// for the given time. Every metric is the median over the repetitions;
// times are in reference time (see rep.refSeconds).
func timedPass(b benchWorkload, seconds float64) (*result, error) {
	res := &result{}
	var setup []float64
	for i := 0; i < setups; i++ {
		debug.FreeOSMemory()
		p, err := runRep(nil, b, repOpts{ref: true})
		if err != nil {
			return nil, err
		}
		res.check(b, fmt.Sprintf("set-up %d", i), p)
		setup = append(setup, p.refSeconds(p.Wall))
	}
	reps, err := repeat(nil, b, seconds, res, repOpts{ref: true})
	if err != nil {
		return nil, err
	}
	ops := float64(b.ops())
	res.Metrics.add("setup_s", median(setup), "s")
	res.Metrics.add("host_ops_per_ref_s", medianOf(reps, func(p *rep) float64 { return ops / p.refSeconds(p.Wall) }), "1/ref_s")
	res.Metrics.add("host_cpu_ref_us_per_op", medianOf(reps, func(p *rep) float64 { return p.refSeconds(p.CPU) * 1e6 / ops }), "ref_us")
	res.Metrics.add("host_allocs_per_op", medianOf(reps, func(p *rep) float64 { return float64(p.Mallocs) / ops }), "count")
	res.Metrics.add("host_alloc_kb_per_op", medianOf(reps, func(p *rep) float64 { return float64(p.Bytes) / 1024 / ops }), "KiB")
	res.Metrics.add("host_live_mb", medianOf(reps, func(p *rep) float64 { return float64(p.LiveBytes) / (1 << 20) }), "MiB")
	return res, nil
}

// repeat runs repetitions of b back to back until the time is up, checks
// each, and drops each result once checked so that no repetition's live
// heap holds an earlier one's trace.
func repeat(sp *spans, b benchWorkload, seconds float64, res *result, o repOpts) ([]*rep, error) {
	var reps []*rep
	for t0 := time.Now(); len(reps) < minReps || time.Since(t0).Seconds() < seconds; {
		p, err := runRep(sp, b, o)
		if err != nil {
			return nil, err
		}
		res.check(b, fmt.Sprintf("repetition %d", len(reps)), p)
		p.Res = nil
		reps = append(reps, p)
	}
	res.Samples = len(reps)
	return reps, nil
}

func opsPerSec(b benchWorkload, reps []*rep) float64 {
	return medianOf(reps, func(p *rep) float64 { return float64(b.ops()) / p.Wall.Seconds() })
}

// tracedPass produces every per-layer metric for b: those measured on the
// workload itself and those of the isolated drivers. It records a span
// around each call it makes into the program and writes them to spansPath
// when done.
func tracedPass(b benchWorkload, seconds float64, spansPath string) (*result, error) {
	res := &result{}
	sp := newSpans(b.Name)
	if err := workloadLayers(sp, b, seconds, res); err != nil {
		return nil, err
	}
	if err := driverLayers(sp, b.Spec.Seed, b.scale, &res.Metrics); err != nil {
		return nil, err
	}
	return res, sp.write(spansPath)
}

// workloadLayers measures the layers under b's own traffic: exact counts
// from one repetition's report, the CPU-sample share of every layer from
// repetitions run under a profile for the given time, the cost of the
// engine's message timeline, and a replay of the recording on a fresh
// world.
func workloadLayers(sp *spans, b benchWorkload, seconds float64, res *result) error {
	ms := &res.Metrics
	first, err := runRep(sp, b, repOpts{})
	if err != nil {
		return err
	}
	res.check(b, "recording", first)
	countMetrics(ms, b, first.Res)
	traceCodecMetrics(sp, ms, first.Res.Trace)

	plain, err := repeat(sp, b, 0, res, repOpts{ref: true})
	if err != nil {
		return err
	}
	ms.add("host_ops_per_s", opsPerSec(b, plain), "1/s")
	ms.add("host_cpu_us_per_op", medianOf(plain, func(p *rep) float64 { return float64(p.CPU.Microseconds()) / float64(b.ops()) }), "us")
	ms.add("host_ref_ms", medianOf(plain, func(p *rep) float64 { return float64(p.Ref.Microseconds()) / 1e3 }), "ms")
	ms.add("registry.build_us_per_rank",
		medianOf(plain, func(p *rep) float64 { return float64(p.Build.Microseconds()) })/float64(b.Spec.Ranks), "us")

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	profiled, err := repeat(sp, b, seconds, res, repOpts{})
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	shares, samples, err := hostShares(prof.Bytes())
	if err != nil {
		return fmt.Errorf("%s: decoding the CPU profile: %w", b.Name, err)
	}
	for _, l := range shareLayers {
		ms.add("host_share."+l, shares[l], "ratio")
	}
	ms.add("host_share.samples", float64(samples), "count")
	ms.add("bench.trace_overhead_ratio", opsPerSec(b, profiled)/opsPerSec(b, plain), "ratio")

	// The engine's own message timeline: what it costs when on, and the
	// one place a collective's sends can be told from the application's.
	timeline, err := runRep(sp, b, repOpts{msgTrace: true})
	if err != nil {
		return err
	}
	res.check(b, "with message trace", timeline)
	ms.add("trace.on_overhead_ratio", timeline.Wall.Seconds()/medianOf(plain, func(p *rep) float64 { return p.Wall.Seconds() }), "ratio")
	ms.add("coll.msgs_per_op", float64(collMessages(timeline.Log))/float64(b.ops()), "count")

	return replayCheck(sp, b, first, res)
}

// driverLayers measures the layers in isolation. What it runs does not
// depend on the workload, only on the seed and the scale.
func driverLayers(sp *spans, seed int64, scale float64, ms *metrics) error {
	driverMetrics(sp, ms, scale)
	if err := modelMetrics(sp, ms); err != nil {
		return err
	}
	speedup, err := parallelSpeedup(sp, seed, scale)
	if err != nil {
		return err
	}
	ms.add("sim.shard.parallel_speedup", speedup, "ratio")
	return nil
}

// replayCheck replays the recording on a fresh world; a divergent replay
// fails all its operations and is reported with the first divergent event.
// A sharded workload replays on the single-lane kernel, whose per-rank
// finish times must be equal.
func replayCheck(sp *spans, b benchWorkload, first *rep, res *result) error {
	spec := b.Spec
	spec.Lanes = 0
	res.Attempted += b.ops()
	p, err := runRep(sp, b, repOpts{spec: &spec, replay: first.Res.Trace})
	var div *workload.Divergence
	if errors.As(err, &div) {
		res.Failed += b.ops()
		res.Notes = append(res.Notes, fmt.Sprintf("%s replay: %v", b.Name, div))
		return nil
	}
	if err != nil {
		return err
	}
	if r := firstRankDiff(first.Res.Report, p.Res.Report); r >= 0 {
		res.Failed += b.ops()
		res.Notes = append(res.Notes, fmt.Sprintf("%s replay (lanes %d -> single lane): rank %d finished at %v, recorded %v",
			b.Name, b.Spec.Lanes, r, p.Res.Report.RankElapsed[r], first.Res.Report.RankElapsed[r]))
	}
	return nil
}

// parallelSpeedup runs a quarter-length allreduce_shard job on the
// sharded kernel with and without pinned parallel workers and reports
// sequential time over parallel time.
func parallelSpeedup(sp *spans, seed int64, scale float64) (float64, error) {
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: GOMAXPROCS is 1, so sim.shard.parallel_speedup cannot exceed 1")
	}
	var job benchWorkload
	for _, w := range workloads(seed, scale/4) {
		if w.Name == "allreduce_shard" {
			job = w
		}
	}
	var walls [2][]float64
	for i := 0; i < minReps; i++ {
		for par := range walls {
			spec := job.Spec
			spec.Parallel = par == 1
			p, err := runRep(sp, job, repOpts{spec: &spec})
			if err != nil {
				return 0, err
			}
			walls[par] = append(walls[par], p.Wall.Seconds())
		}
	}
	return median(walls[0]) / median(walls[1]), nil
}
