package bench

import (
	"strings"
	"testing"
)

// The full sweep is exercised (and double-run) by the CI workloads job;
// here one cell proves the record/re-record/replay plumbing end to end.
func TestWorkloadCell(t *testing.T) {
	p, err := workloadCell(&runner{}, workloadRanks, workloadSeed, "mem", "halo")
	if err != nil {
		t.Fatal(err)
	}
	if !p.RerecordOK || !p.ReplayOK {
		t.Errorf("rerecord=%v replay=%v", p.RerecordOK, p.ReplayOK)
	}
	if p.Events == 0 || p.P50US <= 0 || p.OpsPerSec <= 0 {
		t.Errorf("degenerate point %+v", p)
	}
	if p.TraceBytes == 0 {
		t.Error("trace size not recorded")
	}
}

func TestCheckWorkloadsGate(t *testing.T) {
	rep := WorkloadsReport{Ranks: workloadRanks, Seed: workloadSeed}
	for _, backend := range workloadBackends {
		for _, pattern := range []string{"allreduce", "halo", "rpc", "shuffle", "stencil"} {
			rep.Points = append(rep.Points, WorkloadPoint{
				Workload: pattern, Backend: backend,
				Events: 160, P50US: 100, P99US: 200, P999US: 300, OpsPerSec: 1000, MBPerSec: 5,
				RerecordOK: true, ReplayOK: true,
			})
		}
	}
	if fails := gate(t, "workloads", rep, nil); len(fails) != 0 {
		t.Fatalf("clean report failed static floors: %v", fails)
	}

	broken := rep
	broken.Points = append([]WorkloadPoint(nil), rep.Points...)
	broken.Points[0].ReplayOK = false
	if fails := gate(t, "workloads", broken, nil); len(fails) != 1 || !strings.Contains(fails[0], "diverged") {
		t.Fatalf("divergence not gated: %v", fails)
	}

	missing := rep
	missing.Points = rep.Points[1:]
	if fails := gate(t, "workloads", missing, nil); len(fails) == 0 {
		t.Fatal("missing grid point not gated")
	}

	regressed := rep
	regressed.Points = append([]WorkloadPoint(nil), rep.Points...)
	regressed.Points[3].P99US *= 1.5
	regressed.Points[4].OpsPerSec *= 0.5
	fails := gate(t, "workloads", regressed, rep)
	if len(fails) != 2 {
		t.Fatalf("want p99 + throughput regressions flagged, got %v", fails)
	}
	if !strings.Contains(fails[0], "p99") || !strings.Contains(fails[1], "throughput") {
		t.Fatalf("unexpected gate messages: %v", fails)
	}

	if fails := gate(t, "workloads", rep, regressed); len(fails) != 0 {
		t.Fatalf("improvement flagged as regression: %v", fails)
	}
}
