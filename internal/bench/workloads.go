package bench

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/workload"
	"repro/mpi"
	"repro/platform/registry"
)

// The workloads suite: every registered macro-workload pattern over the
// representative backends. Each (backend, pattern) cell records the workload
// twice on the single-lane kernel (the traces must be byte-identical), then
// replays the recording on the sharded and parallel kernels (the replayed
// event streams and per-rank finish times must match event for event).
// Latency percentiles and throughput are virtual-time numbers, so the whole
// report is bit-reproducible — CI runs the sweep twice and compares bytes.

// WorkloadPoint is one (workload, backend) cell, measured on the
// single-lane kernel.
type WorkloadPoint struct {
	Workload   string  `json:"workload"`
	Backend    string  `json:"backend"`
	Events     int     `json:"events"`      // SLO-op completions scored
	TraceBytes int     `json:"trace_bytes"` // encoded size of the recording
	ElapsedUS  float64 `json:"elapsed_us"`  // slowest rank's virtual finish
	P50US      float64 `json:"p50_us"`
	P99US      float64 `json:"p99_us"`
	P999US     float64 `json:"p999_us"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	MBPerSec   float64 `json:"mb_per_sec"`
	RerecordOK bool    `json:"rerecord_ok"` // second recording byte-identical
	ReplayOK   bool    `json:"replay_ok"`   // both sharded kernels replayed it event for event, to each rank's finish time
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

// Workloads sweeps every registered pattern across the backends.
func Workloads(o Opts) (WorkloadsReport, error) {
	rep := WorkloadsReport{Ranks: workloadRanks, Seed: workloadSeed}
	for _, backend := range workloadBackends {
		for _, pattern := range workload.Names() {
			pt, err := workloadCell(backend, pattern)
			if err != nil {
				return rep, err
			}
			rep.Points = append(rep.Points, pt)
		}
	}
	return rep, nil
}

// workloadCell records one (backend, pattern) pair on the single-lane
// kernel, twice, and replays the recording on the sharded kernels.
func workloadCell(backend, pattern string) (WorkloadPoint, error) {
	cfg := workload.Config{
		Pattern: pattern, Backend: backend,
		Ranks: workloadRanks, Seed: workloadSeed,
	}
	pt := WorkloadPoint{Workload: pattern, Backend: backend}
	var recs [2]*workload.Result
	for i := range recs {
		w, err := workloadWorld(backend, pattern, kernels[0])
		if err != nil {
			return pt, err
		}
		if recs[i], err = workload.Run(w, cfg); err != nil {
			return pt, fmt.Errorf("workloads %s/%s recording %d: %w", backend, pattern, i+1, err)
		}
	}
	base, encoded := recs[0], recs[0].Trace.Marshal()
	pt.RerecordOK = bytes.Equal(encoded, recs[1].Trace.Marshal())
	pt.ReplayOK = true
	for _, k := range kernels[1:] {
		w, err := workloadWorld(backend, pattern, k)
		if err != nil {
			return pt, err
		}
		res, err := workload.Replay(w, base.Trace)
		var div *workload.Divergence
		switch {
		case err == nil:
			pt.ReplayOK = pt.ReplayOK && slices.Equal(res.Report.RankElapsed, base.Report.RankElapsed)
		case errors.As(err, &div):
			pt.ReplayOK = false
		default:
			return pt, fmt.Errorf("workloads %s/%s lanes=%d: %w", backend, pattern, k.Lanes, err)
		}
	}
	s := base.Summary
	pt.Events = s.Events
	pt.TraceBytes = len(encoded)
	pt.ElapsedUS = s.ElapsedUS
	pt.P50US, pt.P99US, pt.P999US = s.P50US, s.P99US, s.P999US
	pt.OpsPerSec, pt.MBPerSec = s.OpsPerSec, s.MBPerSec
	return pt, nil
}

func workloadWorld(backend, pattern string, k kernel) (*mpi.World, error) {
	spec := registry.SpecFor(backend)
	spec.Ranks = workloadRanks
	spec.Seed = workloadSeed
	spec.Workload = pattern
	spec.Lanes, spec.Parallel = k.Lanes, k.Parallel
	w, err := registry.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("workloads %s lanes=%d: %w", backend, k.Lanes, err)
	}
	return w, nil
}

// FormatWorkloads renders the sweep as the text table the CLI prints.
func FormatWorkloads(r WorkloadsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Workload sweep: %d-rank worlds, seed %d (latencies in virtual us)\n\n", r.Ranks, r.Seed)
	fmt.Fprintf(&b, "%-10s %-18s %7s %9s %9s %9s %10s %9s %9s %9s\n",
		"workload", "backend", "events", "p50", "p99", "p999", "ops/s", "MB/s", "rerecord", "replay")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10s %-18s %7d %9.1f %9.1f %9.1f %10.0f %9.2f %9v %9v\n",
			p.Workload, p.Backend, p.Events,
			p.P50US, p.P99US, p.P999US, p.OpsPerSec, p.MBPerSec, p.RerecordOK, p.ReplayOK)
	}
	return b.String()
}

// checkWorkloads gates the sweep. Static floors, baseline or not: the
// full backends × patterns grid must be present, every recording must
// re-record byte-identically, every replay must reproduce its recording on
// both sharded kernels, and every point must score at least one SLO event.
// Against a committed baseline: no point may disappear, and neither p99
// latency nor throughput may regress more than suiteTol on any point (the
// numbers are virtual time, so a drift means the model changed — the
// tolerance leaves room for deliberate, reviewed cost-model edits
// without letting them slip through unnoticed on a point that was not
// supposed to move).
func checkWorkloads(r WorkloadsReport, base *WorkloadsReport) []string {
	var fails []string
	key := func(p WorkloadPoint) string { return p.Workload + "|" + p.Backend }
	cur := make(map[string]WorkloadPoint, len(r.Points))
	for _, p := range r.Points {
		cur[key(p)] = p
	}
	for _, backend := range workloadBackends {
		for _, pattern := range workload.Names() {
			id := pattern + "|" + backend
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
	if base == nil {
		return fails
	}
	return append(fails, drift("point", r.Points, base.Points, key, suiteTol,
		lower("p99 us", func(p WorkloadPoint) float64 { return p.P99US }).when(func(p WorkloadPoint) bool { return p.P99US > 0 }),
		higher("throughput ops/s", func(p WorkloadPoint) float64 { return p.OpsPerSec }))...)
}
