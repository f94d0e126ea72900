package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/mpi"
	"repro/platform/registry"
)

// The kernels are checked, not recorded: a point the sharded kernels did not
// reproduce is a finding with or without a baseline, and so is one that
// stopped surviving a single failure.
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

	forked := rep
	forked.Points = append([]ChaosPoint(nil), rep.Points...)
	forked.Points[4].Identical = false
	for _, base := range []any{nil, rep} {
		fails := gate(t, "chaos", forked, base)
		if len(fails) != 1 {
			t.Fatalf("baseline %v: want the one kernel fork flagged, got %v", base != nil, fails)
		}
		requireFail(t, fails, "sharded kernels do not reproduce")
	}

	died := rep
	died.Points = append([]ChaosPoint(nil), rep.Points...)
	died.Points[1].Survived = false // a single-failure point
	requireFail(t, gate(t, "chaos", died, nil), "did not survive a 1-failure schedule")
	requireFail(t, gate(t, "chaos", died, rep), "survived 0 regressed")

	missing := rep
	missing.Points = rep.Points[1:]
	requireFail(t, gate(t, "chaos", missing, rep), "dropped from the report")
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
