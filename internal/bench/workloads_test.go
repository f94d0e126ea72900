package bench

import (
	"slices"
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

	edited := func(edit func(ps []WorkloadPoint)) WorkloadsReport {
		r := rep
		r.Points = slices.Clone(rep.Points)
		edit(r.Points)
		return r
	}
	broken := edited(func(ps []WorkloadPoint) { ps[0].ReplayOK = false })
	exactly(t, gate(t, "workloads", broken, nil), "workloads/allreduce/mem: replay diverged")
	rerecorded := edited(func(ps []WorkloadPoint) { ps[1].RerecordOK = false })
	exactly(t, gate(t, "workloads", rerecorded, nil), "workloads/halo/mem: re-record was not byte-identical")
	silent := edited(func(ps []WorkloadPoint) { ps[2].Events = 0 })
	exactly(t, gate(t, "workloads", silent, nil), "workloads/rpc/mem: no SLO events scored")

	missing := rep
	missing.Points = rep.Points[1:]
	exactly(t, gate(t, "workloads", missing, nil), "workloads/allreduce/mem: in the grid, missing from the report")

	// Against a baseline every point is compared exactly, in either
	// direction: a p99 1% off is a finding, and so is throughput that
	// doubled.
	shifted := edited(func(ps []WorkloadPoint) {
		ps[3].P99US *= 1.01
		ps[4].OpsPerSec *= 2
	})
	for _, pair := range [][2]WorkloadsReport{{shifted, rep}, {rep, shifted}} {
		fails := gate(t, "workloads", pair[0], pair[1])
		if len(fails) != 2 || !strings.HasPrefix(fails[0], "workloads/shuffle/mem: {") || !strings.HasPrefix(fails[1], "workloads/stencil/mem: {") {
			t.Fatalf("want the p99 and the throughput points flagged, got %q", fails)
		}
		requireFail(t, fails[:1], `"p99_us":202`)
		requireFail(t, fails[1:], `"ops_per_sec":2000`)
	}
}
