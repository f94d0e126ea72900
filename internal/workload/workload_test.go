package workload_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/mpi"
	"repro/platform/registry"

	_ "repro/platform/cluster"
	_ "repro/platform/meiko"
)

// build constructs a world for a recorded/replayed workload run.
func build(t *testing.T, backend string, ranks, lanes int, parallel bool) *mpi.World {
	t.Helper()
	spec := registry.SpecFor(backend)
	spec.Ranks = ranks
	spec.Seed = 1
	spec.Lanes = lanes
	spec.Parallel = parallel
	w, err := registry.Build(spec)
	if err != nil {
		t.Fatalf("build %s lanes=%d: %v", backend, lanes, err)
	}
	return w
}

func record(t *testing.T, backend, pattern string, lanes int, parallel bool) *workload.Result {
	t.Helper()
	cfg := workload.Config{Pattern: pattern, Backend: backend, Ranks: 8, Seed: 1, Lanes: lanes}
	res, err := workload.Run(build(t, backend, 8, lanes, parallel), cfg)
	if err != nil {
		t.Fatalf("run %s on %s: %v", pattern, backend, err)
	}
	return res
}

// Every pattern records on the reference fabric, produces SLO samples,
// and re-records byte-identically. An rpc request is timed from its send,
// so on a 1 µs fabric its median is tens of µs; stamped when the client
// got round to harvesting the reply, it was milliseconds.
func TestPatternsRecordDeterministically(t *testing.T) {
	for _, pattern := range workload.Names() {
		t.Run(pattern, func(t *testing.T) {
			res := record(t, "mem", pattern, 1, false)
			if len(res.Trace.Events) == 0 {
				t.Fatal("no events recorded")
			}
			s := res.Summary
			if s.Events == 0 || s.P50US <= 0 || s.OpsPerSec <= 0 {
				t.Fatalf("degenerate summary: %+v", s)
			}
			if s.P50US > s.P99US || s.P99US > s.P999US {
				t.Fatalf("percentiles out of order: %+v", s)
			}
			if pattern == "rpc" && s.P50US >= 100 {
				t.Fatalf("rpc p50 %.1f us on mem, want < 100: the latency is not timed from the send", s.P50US)
			}
			again := record(t, "mem", pattern, 1, false)
			if !bytes.Equal(res.Trace.Marshal(), again.Trace.Marshal()) {
				t.Fatal("re-record is not byte-identical")
			}
		})
	}
}

// Recordings replay without divergence on every backend, and the sharded
// (lanes=2) and parallel (lanes=8) kernels reproduce the single-lane
// recording event for event with identical per-rank finish times.
func TestReplayParityAcrossKernels(t *testing.T) {
	backends := []string{"mem", "meiko/lowlatency", "cluster/tcp"}
	if testing.Short() {
		backends = backends[:1]
	}
	kernels := []struct {
		name     string
		lanes    int
		parallel bool
	}{
		{"sharded2", 2, false},
		{"parallel8", 8, true},
	}
	for _, backend := range backends {
		for _, pattern := range workload.Names() {
			t.Run(strings.ReplaceAll(backend, "/", "_")+"/"+pattern, func(t *testing.T) {
				base := record(t, backend, pattern, 1, false)
				for _, k := range kernels {
					res, err := workload.Replay(build(t, backend, 8, k.lanes, k.parallel), base.Trace)
					if err != nil {
						t.Fatalf("%s replay: %v", k.name, err)
					}
					for r, d := range res.Report.RankElapsed {
						if d != base.Report.RankElapsed[r] {
							t.Fatalf("%s: rank %d finished at %v, single-lane at %v",
								k.name, r, d, base.Report.RankElapsed[r])
						}
					}
				}
			})
		}
	}
}

// Replaying against a world with a different protocol crossover must
// report a divergence, not silently pass.
func TestReplayDetectsModelChange(t *testing.T) {
	base := record(t, "mem", "halo", 1, false)
	spec := registry.SpecFor("mem")
	spec.Ranks = 8
	spec.Seed = 1
	spec.Eager = 4096 // default is 180: the 1 KiB payloads switch protocol
	w, err := registry.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = workload.Replay(w, base.Trace)
	var div *workload.Divergence
	if !errors.As(err, &div) {
		t.Fatalf("want *Divergence, got %v", err)
	}
	if div.Want == nil || div.Got == nil {
		t.Fatalf("divergence should cite both sides: %v", div)
	}
	if div.Index < 0 || div.Index >= len(base.Trace.Events) {
		t.Fatalf("divergence index %d out of range", div.Index)
	}
	want := base.Trace.Events[div.Index]
	if int32(div.Rank) != want.Rank || int64(div.T) != want.T || div.Op != want.Op {
		t.Fatalf("divergence context %v does not match recorded event %v", div, want)
	}
}

func TestRunRejectsUnknownPattern(t *testing.T) {
	w := build(t, "mem", 8, 1, false)
	_, err := workload.Run(w, workload.Config{Pattern: "nope", Ranks: 8})
	if err == nil || !strings.Contains(err.Error(), "halo") {
		t.Fatalf("want an error listing registered patterns, got %v", err)
	}
}

// A rate that leaves no finite think time is an error, not a hang or a
// clock that never moves; zero means the default.
func TestRunRejectsBadRate(t *testing.T) {
	for _, rate := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := build(t, "mem", 8, 1, false)
		_, err := workload.Run(w, workload.Config{Pattern: "rpc", Ranks: 8, Rate: rate})
		if err == nil || !strings.Contains(err.Error(), "rate") {
			t.Errorf("rate %g: want a rate error, got %v", rate, err)
		}
	}
}

func TestRunRejectsRankMismatch(t *testing.T) {
	w := build(t, "mem", 4, 1, false)
	_, err := workload.Run(w, workload.Config{Pattern: "halo", Ranks: 8})
	if err == nil || !strings.Contains(err.Error(), "ranks") {
		t.Fatalf("want a rank-mismatch error, got %v", err)
	}
}

func TestRegistryValidatesWorkloadName(t *testing.T) {
	spec := registry.Spec{Platform: "mem", Ranks: 4, Workload: "definitely-not-registered"}
	_, err := registry.Build(spec)
	if err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("want unknown-workload error, got %v", err)
	}
	spec.Workload = "halo"
	if _, err := registry.Build(spec); err != nil {
		t.Fatalf("valid workload name rejected: %v", err)
	}
}
