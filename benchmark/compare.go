package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: the one place workloads, metrics, their
// direction and their bounds are declared.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory, or from its
// parent when run from inside benchmark/.
func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// run is one benchmark invocation read back from captured output.
type run struct {
	Stamp  stamp
	Result resultLine
}

// readRuns parses a file of captured standard output: any number of runs,
// each a stamp line followed by its result line. Other lines are skipped.
func readRuns(path string) ([]run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []run
	var st *stamp
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte(`{"stamp"`)):
			var v struct{ Stamp stamp }
			if err := json.Unmarshal(line, &v); err != nil {
				return nil, fmt.Errorf("%s: stamp line: %w", path, err)
			}
			st = &v.Stamp
		case bytes.HasPrefix(line, []byte(`{"correct"`)):
			if st == nil {
				return nil, fmt.Errorf("%s: result line without a stamp line before it", path)
			}
			r := run{Stamp: *st}
			if err := json.Unmarshal(line, &r.Result); err != nil {
				return nil, fmt.Errorf("%s: result line: %w", path, err)
			}
			runs, st = append(runs, r), nil
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results found", path)
	}
	return runs, sc.Err()
}

// spread is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(n=4)
// computes them; 0 for fewer than two values.
func spread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	sp := (quartile(3) - quartile(1)) / med
	if sp < 0 {
		sp = -sp
	}
	return sp
}

// exactMetric reports whether a metric is on the simulated clock, where
// two runs of one seed must agree to the last digit.
func exactMetric(name string) bool { return strings.HasPrefix(name, "sim_") }

// compareFiles prints one row per (workload, metric) with A's and B's
// medians, B over A, the bound and a verdict, and reports whether anything
// regressed. End-to-end metrics are judged against their bound; a metric
// whose run-to-run spread exceeds the bound is unresolved rather than
// unchanged, unless every run of B beats every run of A. Simulated-clock
// metrics, trace digests and failure counts are compared exactly between
// runs of the same seed. Other per-layer metrics are shown, not judged.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA (base)\tB\tB/A\tspread A\tspread B\tbound\tverdict")
	row := func(wl, name, unit string, va, vb []float64, bound, verdict string) {
		ma, mb := median(va), median(vb)
		ratio := "-"
		if ma != 0 {
			ratio = fmt.Sprintf("%.4f", mb/ma)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%s\t%.2f%%\t%.2f%%\t%s\t%s\n",
			wl, name, unit, ma, mb, ratio, spread(va)*100, spread(vb)*100, bound, verdict)
	}
	// judged notes a verdict on its way into a row.
	judged := func(verdict string) string {
		regressed = regressed || verdict == "regressed"
		return verdict
	}
	for _, wl := range spec.Workloads {
		for pass, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			ra, rb := pick(a, wl.Name, pass), pick(b, wl.Name, pass)
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			if pass == 0 {
				row(wl.Name, "failed", "count", failures(ra), failures(rb), "exact", judged(exactVerdict(ra, rb, func(r run) string { return fmt.Sprint(r.Result.Failed) })))
			} else {
				fmt.Fprintf(tw, "%s\tsim_digest\t\t\t\t\t\t\texact\t%s\n", wl.Name, judged(exactVerdict(ra, rb, func(r run) string { return r.Stamp.SimDigest })))
			}
			for _, m := range list {
				va, vb := values(ra, m.Name), values(rb, m.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				switch {
				case exactMetric(m.Name):
					row(wl.Name, m.Name, m.Unit, va, vb, "exact",
						judged(exactVerdict(ra, rb, func(r run) string { return fmt.Sprint(r.Result.Metrics[m.Name].Value) })))
				case pass == 0:
					row(wl.Name, m.Name, m.Unit, va, vb, fmt.Sprintf("%.0f%%", m.Bound*100), judged(boundVerdict(m, va, vb)))
				default:
					row(wl.Name, m.Name, m.Unit, va, vb, "-", "info")
				}
			}
		}
	}
	return regressed, tw.Flush()
}

// pick selects the runs of one workload in one pass (0 timed, 1 traced).
func pick(runs []run, workload string, pass int) []run {
	var out []run
	for _, r := range runs {
		if r.Stamp.Workload == workload && r.Stamp.Trace == pass {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []run, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failures(runs []run) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = float64(r.Result.Failed)
	}
	return out
}

// exactVerdict compares key(run) between runs of A and B that share a
// seed: any difference is a regression, and no shared seed leaves the
// question unresolved.
func exactVerdict(a, b []run, key func(run) string) string {
	bySeed := map[int64]string{}
	for _, r := range a {
		bySeed[r.Stamp.Seed] = key(r)
	}
	verdict := "unresolved"
	for _, r := range b {
		want, ok := bySeed[r.Stamp.Seed]
		if !ok {
			continue
		}
		if key(r) != want {
			return "regressed"
		}
		verdict = "ok"
	}
	return verdict
}

// boundVerdict judges an end-to-end metric: B's median may be worse than
// A's by at most the bound.
func boundVerdict(m metricSpec, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	sign := 1.0
	if m.Better == "higher" {
		worse, sign = -worse, -1
	}
	if spread(a) > m.Bound || spread(b) > m.Bound {
		// Too noisy to call, unless B's worst run still beats A's best.
		worstB, bestA := sign*b[0], sign*a[0]
		for _, v := range b {
			worstB = max(worstB, sign*v)
		}
		for _, v := range a {
			bestA = min(bestA, sign*v)
		}
		if worstB < bestA {
			return "ok"
		}
		return "unresolved"
	}
	if worse > m.Bound {
		return "regressed"
	}
	return "ok"
}
