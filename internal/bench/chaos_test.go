package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
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
