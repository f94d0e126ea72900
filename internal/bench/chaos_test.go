package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/mpi"
	"repro/platform/registry"
)

// The kernels are checked, not recorded: a point the sharded kernels did not
// reproduce is a finding with or without a baseline, and so is one that
// stopped surviving a single failure. Against a baseline, any moved point is
// one more finding, naming its key.
func TestCheckChaosGate(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCH_chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep ChaosReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	cells := len(chaosBackends)*len(chaosSchedules) + len(chaosSchedules) // every backend, plus udp again at 1% loss
	if len(rep.Points) != cells {
		t.Fatalf("committed record has %d points, want %d: one per (backend, loss, kills) cell", len(rep.Points), cells)
	}
	if fails := gate(t, "chaos", rep, nil); len(fails) != 0 {
		t.Fatalf("committed record fails the static floors: %v", fails)
	}

	edited := func(i int, edit func(p *ChaosPoint)) ChaosReport {
		r := rep
		r.Points = slices.Clone(rep.Points)
		edit(&r.Points[i])
		return r
	}
	forked := edited(4, func(p *ChaosPoint) { p.Identical = false })
	exactly(t, gate(t, "chaos", forked, nil), "chaos/meiko-lowlatency/0/2-50us: the sharded kernels do not reproduce")
	fails := gate(t, "chaos", forked, rep)
	if len(fails) != 2 || !strings.HasPrefix(fails[1], "chaos/meiko-lowlatency/0/2-50us: {") {
		t.Fatalf("want the kernel fork and the moved point flagged, got %q", fails)
	}
	requireFail(t, fails[1:], `"identical":false}, baseline {`)

	died := edited(1, func(p *ChaosPoint) { p.Survived = false }) // a single-failure point
	exactly(t, gate(t, "chaos", died, nil), "chaos/mem/0/2-50us: world did not survive a 1-failure schedule")
	fails = gate(t, "chaos", died, rep)
	if len(fails) != 2 || !strings.HasPrefix(fails[1], "chaos/mem/0/2-50us: {") {
		t.Fatalf("want the lost survival and the moved point flagged, got %q", fails)
	}
	requireFail(t, fails[1:], `"survived":false`)

	// The baseline arm is exact, whichever way a number moves: a detection
	// latency 1% better is as much a finding as one 1% worse.
	for _, f := range []float64{1.01, 0.99} {
		exactly(t, gate(t, "chaos", edited(1, func(p *ChaosPoint) { p.DetectUS *= f }), rep), "chaos/mem/0/2-50us: {", `"detect_us":51`)
	}

	missing := rep
	missing.Points = rep.Points[1:]
	exactly(t, gate(t, "chaos", missing, rep), "chaos/mem/0/none: in the baseline, missing from the report")
}

// A killed rank keeps charging its own clock after its death (ROADMAP,
// "Model defects still open"). The committed point kills rank 2 at 50 µs,
// inside apps.FTShrink's 100 µs compute phase; on every kernel the point
// builds, rank 2 spends the whole 100 µs of compute, nothing else, and
// finishes at 100 µs. The row is pinned as it stands: ROADMAP item 21(c)
// owns the rule for what a victim may still charge, and the change that
// decides it flips this test on purpose.
func TestKilledRankChargesAfterDeathPinned(t *testing.T) {
	const key, victim = "chaos/cluster-udp/0.01/2-50us", 2
	s := suiteNamed(t, "chaos")
	record, err := os.ReadFile(filepath.Join(repoRoot, s.File()))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.points(Opts{}, record)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(pts, func(p point) bool { return p.key == key })
	if i < 0 {
		t.Fatalf("no point %s in %s", key, s.File())
	}
	var want [sim.NumCats]sim.Duration
	want[sim.Compute] = 100 * time.Microsecond
	worlds := 0
	x := &runner{observe: func(spec registry.Spec, rep *mpi.Report, _ *trace.Log) {
		worlds++
		if spent, end := rep.RankAccts[victim].Spent, rep.RankElapsed[victim]; spent != want || end != 100*time.Microsecond {
			t.Errorf("%s world %d (%s): rank %d spent %v, finished at %v; pinned at 100 µs of compute only, finishing at 100 µs",
				key, worlds, spec.Key(), victim, spent, end)
		}
	}}
	if err := pts[i].measure(x); err != nil {
		t.Fatal(err)
	}
	if worlds == 0 {
		t.Fatalf("%s built no world", key)
	}
}
