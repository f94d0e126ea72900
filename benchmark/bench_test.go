package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// testScale shrinks every workload and driver so the whole suite runs in
// a few seconds.
const testScale = 0.02

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that a pass emitted exactly the metrics
// BENCHMARK.json declares, once each, finite, with the declared unit.
func checkMetrics(t *testing.T, got metrics, want []metricSpec) {
	t.Helper()
	seen := map[string]metric{}
	for _, m := range got {
		if _, dup := seen[m.Name]; dup {
			t.Errorf("metric %s emitted twice", m.Name)
		}
		seen[m.Name] = m
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q is not a valid BENCHMARK.json name", m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v, want a finite number", m.Name, m.Value)
		}
	}
	for _, w := range want {
		m, ok := seen[w.Name]
		if !ok {
			t.Errorf("metric %s is declared in BENCHMARK.json but was not emitted", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
		delete(seen, w.Name)
	}
	for name := range seen {
		t.Errorf("metric %s was emitted but is not declared in BENCHMARK.json", name)
	}
}

func TestEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads(7, testScale)
	if len(ws) != len(spec.Workloads) {
		t.Fatalf("benchmark has %d workloads, BENCHMARK.json lists %d", len(ws), len(spec.Workloads))
	}
	// The drivers are the same for every workload and the slowest part at
	// this scale, so they run once and every workload's metrics join theirs.
	sp := newSpans("test")
	var drivers metrics
	if err := driverLayers(sp, 7, testScale, &drivers); err != nil {
		t.Fatal(err)
	}
	for i, b := range ws {
		if b.Name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json lists %s", i, b.Name, spec.Workloads[i].Name)
		}
		t.Run(b.Name, func(t *testing.T) {
			timed, err := timedPass(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, timed.Metrics, spec.EndToEnd)
			traced := &result{}
			if err := workloadLayers(sp, b, 0, traced); err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, append(traced.Metrics, drivers...), spec.PerLayer)
			for _, res := range []*result{timed, traced} {
				if res.Failed != 0 || res.Attempted < b.ops() {
					t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Notes)
				}
			}
			if timed.Digest != traced.Digest {
				t.Errorf("timed pass digest %s, traced pass digest %s", timed.Digest, traced.Digest)
			}
		})
	}

	spansPath := filepath.Join(t.TempDir(), "build", "spans.json")
	if err := sp.write(spansPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ TraceEvents []struct{ Name string } }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("spans file is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Name] = true
	}
	for _, want := range []string{"registry.Build", "workload.Run", "workload.Replay", "Trace.Marshal", "bench.Anchors", "driver:sim.sched.event"} {
		if !names[want] {
			t.Errorf("spans file has no %q span", want)
		}
	}
}

func TestAttributeChargesTheInnermostRepoFrame(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frames []string // innermost first
		want   string
	}{
		{"runtime under a repo frame",
			[]string{"runtime.chansend", "runtime.chansend1", "repro/internal/sim.(*Scheduler).dispatch", "repro/internal/sim.(*Scheduler).Run", "repro/mpi.Launch", "main.runRep"}, "sim"},
		{"map assign under the ledger",
			[]string{"runtime.mapassign_faststr", "repro/internal/core.(*Acct).Incr", "repro/platform/cluster.(*transport).Send", "repro/mpi.(*Comm).Send"}, "core"},
		{"platform and medium share a name",
			[]string{"repro/platform/meiko.(*lowlat).Send", "repro/internal/meiko.(*Node).Txn"}, "platform-meiko"},
		{"benchmark pattern body",
			[]string{"runtime.memmove", "main.patternRPCClosed", "repro/internal/workload.Run.func1"}, "workload"},
		{"pure collector stack",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime-gc"},
		{"goroutine scheduler stack",
			[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "runtime-sched"},
		{"benchmark-only stack",
			[]string{"crypto/sha256.block", "main.runRep", "main.timedPass", "main.main", "runtime.main"}, "other"},
		{"empty stack", nil, "other"},
	} {
		if got := attribute(tc.frames); got != tc.want {
			t.Errorf("%s: attribute = %s, want %s", tc.name, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for t0 := time.Now(); time.Since(t0) < d; {
		n++
	}
	return n
}

func TestHostSharesReadsARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range stacks {
		for _, f := range s.frames {
			found = found || strings.HasSuffix(f, ".spin")
		}
	}
	if !found {
		t.Errorf("no sampled stack of %d holds the spinning function", len(stacks))
	}
	shares, samples, err := hostShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if samples == 0 || math.Abs(sum-1) > 1e-9 {
		t.Errorf("%d samples, shares sum to %v, want 1", samples, sum)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

// captured renders runs the way the benchmark prints them.
func captured(t *testing.T, pass int, workload string, seedValues map[int64]map[string]float64, digest string) string {
	t.Helper()
	var b strings.Builder
	for seed, vals := range seedValues {
		st, _ := json.Marshal(map[string]stamp{"stamp": {Workload: workload, Seed: seed, Trace: pass, SimDigest: digest}})
		line := resultLine{Correct: true, Attempted: 10, Metrics: map[string]metricValue{}}
		for k, v := range vals {
			line.Metrics[k] = metricValue{Value: v}
		}
		res, _ := json.Marshal(line)
		fmt.Fprintf(&b, "some other output\n%s\n%s\n", st, res)
	}
	return b.String()
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.txt",
		captured(t, 0, "halo_mem", map[int64]map[string]float64{
			1: {"host_ops_per_ref_s": 1000, "host_cpu_ref_us_per_op": 50, "host_live_mb": 10},
			2: {"host_ops_per_ref_s": 1010, "host_cpu_ref_us_per_op": 51, "host_live_mb": 10}}, "d1")+
			captured(t, 1, "halo_mem", map[int64]map[string]float64{1: {"sim_p50_us": 32, "core.msgs_per_op": 4}}, "d1"))

	same := write("same.txt",
		captured(t, 0, "halo_mem", map[int64]map[string]float64{
			1: {"host_ops_per_ref_s": 990, "host_cpu_ref_us_per_op": 50.5, "host_live_mb": 10},
			2: {"host_ops_per_ref_s": 1005, "host_cpu_ref_us_per_op": 50, "host_live_mb": 10}}, "d1")+
			captured(t, 1, "halo_mem", map[int64]map[string]float64{1: {"sim_p50_us": 32, "core.msgs_per_op": 5}}, "d1"))
	var out bytes.Buffer
	regressed, err := compareFiles(&out, base, same)
	if err != nil || regressed {
		t.Fatalf("same-commit compare: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	for _, want := range []string{"host_ops_per_ref_s", "sim_p50_us", "sim_digest", "failed", "info"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}

	slower := write("slower.txt", captured(t, 0, "halo_mem", map[int64]map[string]float64{
		1: {"host_ops_per_ref_s": 700, "host_cpu_ref_us_per_op": 50, "host_live_mb": 10},
		2: {"host_ops_per_ref_s": 710, "host_cpu_ref_us_per_op": 50, "host_live_mb": 10}}, "d1"))
	out.Reset()
	if regressed, err = compareFiles(&out, base, slower); err != nil || !regressed {
		t.Errorf("30%% fewer ops/s: regressed=%v err=%v\n%s", regressed, err, out.String())
	}

	drifted := write("drifted.txt", captured(t, 1, "halo_mem", map[int64]map[string]float64{1: {"sim_p50_us": 32.001}}, "d1"))
	out.Reset()
	if regressed, err = compareFiles(&out, base, drifted); err != nil || !regressed {
		t.Errorf("simulated p50 moved: regressed=%v err=%v\n%s", regressed, err, out.String())
	}

	noisy := write("noisy.txt", captured(t, 0, "halo_mem", map[int64]map[string]float64{
		1: {"host_ops_per_ref_s": 600, "host_cpu_ref_us_per_op": 50, "host_live_mb": 10},
		2: {"host_ops_per_ref_s": 1400, "host_cpu_ref_us_per_op": 50, "host_live_mb": 10}}, "d1"))
	out.Reset()
	if regressed, err = compareFiles(&out, base, noisy); err != nil || regressed || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("spread wider than the bound: regressed=%v err=%v, want an unresolved row\n%s", regressed, err, out.String())
	}

	if _, err := compareFiles(&out, base, write("empty.txt", "no results here\n")); err == nil {
		t.Error("compare accepted a file without results")
	}
}
