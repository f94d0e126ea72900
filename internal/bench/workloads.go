package bench

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/workload"
	"repro/mpi"
	"repro/platform/registry"
)

// The workloads suite: every registered macro-workload pattern over the
// representative backends. Each (backend, pattern) cell records the workload
// on the single-lane kernel, replays the recording on the sharded and
// parallel kernels (the replayed event streams and per-rank finish times
// must match event for event) and records it again (the traces must be
// byte-identical).
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

// workloadsSweep is every registered pattern across the backends.
func workloadsSweep(Opts) sweep[WorkloadsReport] {
	return sweep[WorkloadsReport]{
		skeleton: func() WorkloadsReport {
			rep := WorkloadsReport{Ranks: workloadRanks, Seed: workloadSeed}
			for _, backend := range workloadBackends {
				for _, pattern := range workload.Names() {
					rep.Points = append(rep.Points, WorkloadPoint{Workload: pattern, Backend: backend})
				}
			}
			return rep
		},
		points: func(r *WorkloadsReport) []point {
			return each(r.Points, workloadKey, func(x *runner, p WorkloadPoint) (WorkloadPoint, error) {
				return workloadCell(x, r.Ranks, r.Seed, p.Backend, p.Workload)
			})
		},
	}
}

// workloadCell records one (backend, pattern) pair on the single-lane
// kernel, replays the recording on the sharded kernels, and records it
// again.
func workloadCell(x *runner, ranks int, seed int64, backend, pattern string) (WorkloadPoint, error) {
	spec := registry.SpecFor(backend)
	spec.Ranks, spec.Seed, spec.Workload = ranks, seed, pattern
	cfg := workload.Config{Pattern: pattern, Backend: backend, Ranks: ranks, Seed: seed}
	// play records the workload on kernel k, or replays base's recording.
	play := func(k kernel, base *workload.Result) (res *workload.Result, err error) {
		_, err = x.world(on(spec, k), func(w *mpi.World) (*mpi.Report, error) {
			if base == nil {
				res, err = workload.Run(w, cfg)
			} else {
				res, err = workload.Replay(w, base.Trace)
			}
			if res == nil {
				return nil, err
			}
			return res.Report, err
		})
		return res, err
	}
	var base *workload.Result
	_, replayOK, err := reproduced(kernels, func(k kernel) ([]sim.Duration, error) {
		res, err := play(k, base)
		var div *workload.Divergence
		switch {
		case errors.As(err, &div):
			return nil, nil // a divergent replay reproduces nothing
		case err != nil:
			return nil, err
		case base == nil:
			base = res
		}
		return res.Report.RankElapsed, nil
	}, slices.Equal)
	if err != nil {
		return WorkloadPoint{}, err
	}
	again, err := play(kernels[0], nil)
	if err != nil {
		return WorkloadPoint{}, err
	}
	encoded, s := base.Trace.Marshal(), base.Summary
	return WorkloadPoint{Workload: pattern, Backend: backend, Events: s.Events, TraceBytes: len(encoded), ElapsedUS: s.ElapsedUS,
		P50US: s.P50US, P99US: s.P99US, P999US: s.P999US, OpsPerSec: s.OpsPerSec, MBPerSec: s.MBPerSec,
		RerecordOK: bytes.Equal(encoded, again.Trace.Marshal()), ReplayOK: replayOK}, nil
}

// workloadKey names one point of the report.
func workloadKey(p WorkloadPoint) string { return key("workloads", p.Workload, p.Backend) }

// checkWorkloads is the sweep's static floors: the full backends × patterns
// grid must be present, every recording must re-record byte-identically,
// every replay must reproduce its recording on both sharded kernels, and
// every point must score at least one SLO event.
func checkWorkloads(r WorkloadsReport) []string {
	var fails []string
	for _, p := range workloadsSweep(Opts{}).skeleton().Points {
		if !slices.ContainsFunc(r.Points, func(q WorkloadPoint) bool { return workloadKey(q) == workloadKey(p) }) {
			fails = append(fails, fmt.Sprintf("%s: in the grid, missing from the report", workloadKey(p)))
		}
	}
	for _, p := range r.Points {
		if !p.RerecordOK {
			fails = append(fails, fmt.Sprintf("%s: re-record was not byte-identical", workloadKey(p)))
		}
		if !p.ReplayOK {
			fails = append(fails, fmt.Sprintf("%s: replay diverged from the recording", workloadKey(p)))
		}
		if p.Events <= 0 {
			fails = append(fails, fmt.Sprintf("%s: no SLO events scored", workloadKey(p)))
		}
	}
	return fails
}
