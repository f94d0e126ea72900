package bench

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/workload"
	"repro/mpi"
	"repro/platform/registry"
)

// The workloads suite: every registered macro-workload pattern over the
// representative backends × kernels grid. Each (backend, pattern) cell
// records the workload twice on the single-lane kernel (the traces must
// be byte-identical), then replays the recording on the sharded and
// parallel kernels (the replayed event streams and per-rank finish times
// must match event for event). Latency percentiles and throughput are
// virtual-time numbers, so the whole report is bit-reproducible — CI runs
// the sweep twice and compares bytes.

// WorkloadPoint is one (workload, backend, kernel) cell.
type WorkloadPoint struct {
	Workload   string  `json:"workload"`
	Backend    string  `json:"backend"`
	Lanes      int     `json:"lanes"`
	Parallel   bool    `json:"parallel,omitempty"`
	Events     int     `json:"events"`      // SLO-op completions scored
	TraceBytes int     `json:"trace_bytes"` // encoded size of the recording
	ElapsedUS  float64 `json:"elapsed_us"`  // slowest rank's virtual finish
	P50US      float64 `json:"p50_us"`
	P99US      float64 `json:"p99_us"`
	P999US     float64 `json:"p999_us"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	MBPerSec   float64 `json:"mb_per_sec"`
	RerecordOK bool    `json:"rerecord_ok"` // second recording byte-identical
	ReplayOK   bool    `json:"replay_ok"`   // replay reproduced the recording
}

// WorkloadsReport is the machine-readable record of one sweep
// (BENCH_workloads.json).
type WorkloadsReport struct {
	Ranks  int             `json:"ranks"`
	Seed   int64           `json:"seed"`
	Points []WorkloadPoint `json:"points"`
}

const (
	workloadRanks = 8
	workloadSeed  = 1
)

// workloadBackends are the swept backends: the reference fabric, the
// paper's Meiko port, and the ATM cluster's TCP transport.
var workloadBackends = []string{"mem", "meiko/lowlatency", "cluster/tcp"}

// workloadKernels are the swept kernels: single-lane (the recording
// baseline), sharded sequential, and sharded with pinned parallel
// workers.
var workloadKernels = []struct {
	Lanes    int
	Parallel bool
}{
	{1, false},
	{2, false},
	{8, true},
}

// Workloads sweeps every registered pattern across backends × kernels.
func Workloads(o Opts) (WorkloadsReport, error) {
	rep := WorkloadsReport{Ranks: workloadRanks, Seed: workloadSeed}
	for _, backend := range workloadBackends {
		for _, pattern := range workload.Names() {
			pts, err := workloadCell(backend, pattern)
			if err != nil {
				return rep, err
			}
			rep.Points = append(rep.Points, pts...)
		}
	}
	return rep, nil
}

// workloadCell records one (backend, pattern) pair on the single-lane
// kernel and replays it on the sharded kernels.
func workloadCell(backend, pattern string) ([]WorkloadPoint, error) {
	cfg := workload.Config{
		Pattern: pattern, Backend: backend,
		Ranks: workloadRanks, Seed: workloadSeed,
	}
	var pts []WorkloadPoint
	var base *workload.Result
	var baseBytes []byte
	for _, k := range workloadKernels {
		w, err := workloadWorld(backend, pattern, k.Lanes, k.Parallel)
		if err != nil {
			return nil, err
		}
		pt := WorkloadPoint{Workload: pattern, Backend: backend, Lanes: k.Lanes, Parallel: k.Parallel}
		var res *workload.Result
		if base == nil {
			// The single-lane recording: run it twice; the encodings
			// must agree byte for byte.
			if res, err = workload.Run(w, cfg); err != nil {
				return nil, fmt.Errorf("workloads %s/%s: %w", backend, pattern, err)
			}
			baseBytes = res.Trace.Marshal()
			w2, err := workloadWorld(backend, pattern, k.Lanes, k.Parallel)
			if err != nil {
				return nil, err
			}
			again, err := workload.Run(w2, cfg)
			if err != nil {
				return nil, fmt.Errorf("workloads %s/%s re-record: %w", backend, pattern, err)
			}
			pt.RerecordOK = bytes.Equal(baseBytes, again.Trace.Marshal())
			pt.ReplayOK = true
			base = res
		} else {
			res, err = workload.Replay(w, base.Trace)
			var div *workload.Divergence
			switch {
			case err == nil:
				pt.ReplayOK = workloadRanksMatch(res, base)
				pt.RerecordOK = true
			case errors.As(err, &div):
				pt.ReplayOK = false
			default:
				return nil, fmt.Errorf("workloads %s/%s lanes=%d: %w", backend, pattern, k.Lanes, err)
			}
		}
		if res != nil {
			s := res.Summary
			pt.Events = s.Events
			pt.TraceBytes = len(baseBytes)
			pt.ElapsedUS = s.ElapsedUS
			pt.P50US, pt.P99US, pt.P999US = s.P50US, s.P99US, s.P999US
			pt.OpsPerSec, pt.MBPerSec = s.OpsPerSec, s.MBPerSec
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

func workloadWorld(backend, pattern string, lanes int, parallel bool) (*mpi.World, error) {
	spec := registry.SpecFor(backend)
	spec.Ranks = workloadRanks
	spec.Seed = workloadSeed
	spec.Workload = pattern
	if lanes > 1 {
		spec.Lanes = lanes
		spec.Parallel = parallel
	}
	w, err := registry.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("workloads %s lanes=%d: %w", backend, lanes, err)
	}
	return w, nil
}

// workloadRanksMatch reports whether a replay's per-rank finish times
// equal the recording's.
func workloadRanksMatch(got, want *workload.Result) bool {
	if len(got.Report.RankElapsed) != len(want.Report.RankElapsed) {
		return false
	}
	for i, d := range got.Report.RankElapsed {
		if d != want.Report.RankElapsed[i] {
			return false
		}
	}
	return true
}

// FormatWorkloads renders the sweep as the text table the CLI prints.
func FormatWorkloads(r WorkloadsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Workload sweep: %d-rank worlds, seed %d (latencies in virtual us)\n\n", r.Ranks, r.Seed)
	fmt.Fprintf(&b, "%-10s %-18s %5s %4s %7s %9s %9s %9s %10s %9s %9s %9s\n",
		"workload", "backend", "lanes", "par", "events", "p50", "p99", "p999", "ops/s", "MB/s", "rerecord", "replay")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10s %-18s %5d %4v %7d %9.1f %9.1f %9.1f %10.0f %9.2f %9v %9v\n",
			p.Workload, p.Backend, p.Lanes, p.Parallel, p.Events,
			p.P50US, p.P99US, p.P999US, p.OpsPerSec, p.MBPerSec, p.RerecordOK, p.ReplayOK)
	}
	return b.String()
}

// checkWorkloads gates the sweep. Static floors, baseline or not: the
// full backends × patterns × kernels grid must be present, every
// recording must re-record byte-identically, every replay must reproduce
// its recording, and every point must score at least one SLO event.
// Against a committed baseline: no point may disappear, and neither p99
// latency nor throughput may regress more than suiteTol on any point (the
// numbers are virtual time, so a drift means the model changed — the
// tolerance leaves room for deliberate, reviewed cost-model edits
// without letting them slip through unnoticed on a point that was not
// supposed to move).
func checkWorkloads(r WorkloadsReport, base *WorkloadsReport) []string {
	var fails []string
	key := func(p WorkloadPoint) string {
		return fmt.Sprintf("%s|%s|%d|%v", p.Workload, p.Backend, p.Lanes, p.Parallel)
	}
	cur := make(map[string]WorkloadPoint, len(r.Points))
	for _, p := range r.Points {
		cur[key(p)] = p
	}
	for _, backend := range workloadBackends {
		for _, pattern := range workload.Names() {
			for _, k := range workloadKernels {
				id := fmt.Sprintf("%s|%s|%d|%v", pattern, backend, k.Lanes, k.Parallel)
				p, ok := cur[id]
				if !ok {
					fails = append(fails, fmt.Sprintf("missing sweep point %s", id))
					continue
				}
				if !p.RerecordOK {
					fails = append(fails, fmt.Sprintf("%s: re-record was not byte-identical", id))
				}
				if !p.ReplayOK {
					fails = append(fails, fmt.Sprintf("%s: replay diverged from the recording", id))
				}
				if p.Events <= 0 {
					fails = append(fails, fmt.Sprintf("%s: no SLO events scored", id))
				}
			}
		}
	}
	if base == nil {
		return fails
	}
	return append(fails, drift("point", r.Points, base.Points, key, suiteTol,
		lower("p99 us", func(p WorkloadPoint) float64 { return p.P99US }).when(func(p WorkloadPoint) bool { return p.P99US > 0 }),
		higher("throughput ops/s", func(p WorkloadPoint) float64 { return p.OpsPerSec }))...)
}
