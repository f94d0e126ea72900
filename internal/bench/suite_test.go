package bench

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// suiteNamed resolves one registered suite.
func suiteNamed(t *testing.T, name string) Suite {
	t.Helper()
	ss, err := Suites(name)
	if err != nil {
		t.Fatal(err)
	}
	return ss[0]
}

// gate runs the named suite's gate over hand-built reports, through the
// same encode/decode path a committed record takes. base may be nil.
func gate(t *testing.T, name string, cur, base any) []string {
	t.Helper()
	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var baseline []byte
	if base != nil {
		baseline = enc(base)
	}
	fails, err := suiteNamed(t, name).Check(enc(cur), baseline)
	if err != nil {
		t.Fatal(err)
	}
	return fails
}

func requireFail(t *testing.T, fails []string, substr string) {
	t.Helper()
	for _, f := range fails {
		if strings.Contains(f, substr) {
			return
		}
	}
	t.Fatalf("gate did not report %q: %v", substr, fails)
}

// exactly requires one finding, starting with prefix and containing each of
// parts.
func exactly(t *testing.T, fails []string, prefix string, parts ...string) {
	t.Helper()
	if len(fails) != 1 || !strings.HasPrefix(fails[0], prefix) {
		t.Fatalf("gate reported %q, want one finding starting %q", fails, prefix)
	}
	for _, p := range parts {
		requireFail(t, fails, p)
	}
}

// repoRoot is where the committed BENCH_<name>.json records live.
const repoRoot = "../.."

func TestSuites(t *testing.T) {
	all, err := Suites("all")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range all {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	// Eight suites, each once, all of one kind.
	if got, want := strings.Join(names, ","), "ablations,anchors,chaos,collectives,faults,rma,scale,workloads"; got != want {
		t.Fatalf("registered suites %s, want %s", got, want)
	}

	// The registry and the committed records name the same set.
	files, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stems []string
	for _, f := range files {
		stems = append(stems, strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "BENCH_"), ".json"))
	}
	sort.Strings(stems)
	if strings.Join(names, ",") != strings.Join(stems, ",") {
		t.Fatalf("registered suites %v, committed records %v", names, stems)
	}

	for _, s := range all {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			record, err := os.ReadFile(filepath.Join(repoRoot, s.File()))
			if err != nil {
				t.Fatal(err)
			}
			// A committed record passes its own gate against itself.
			fails, err := s.Check(record, record)
			if err != nil || len(fails) != 0 {
				t.Fatalf("committed %s fails its own gate: %v %v", s.File(), err, fails)
			}
			// A damaged baseline is an error before anything is measured
			// (Run would otherwise take seconds), never a panic.
			for what, bad := range map[string][]byte{
				"truncated": record[:len(record)/2],
				"non-JSON":  []byte("not json"),
				"empty":     {},
			} {
				if _, err := s.Run(Opts{Iters: 1}, bad); err == nil || !strings.Contains(err.Error(), s.Name+" baseline") {
					t.Errorf("%s baseline: Run returned %v, want a %q error", what, err, s.Name+" baseline")
				}
				if _, err := s.Check(record, bad); err == nil {
					t.Errorf("%s baseline: Check returned no error", what)
				}
				if _, err := s.Check(bad, nil); err == nil {
					t.Errorf("%s record: Check returned no error", what)
				}
			}
			if _, err := s.Check(nil, nil); err == nil {
				t.Error("missing record: Check returned no error")
			}
			// So is a baseline directory that lacks the record.
			if _, err := s.RunDir(Opts{Iters: 1}, t.TempDir(), ""); err == nil || !strings.Contains(err.Error(), s.File()) {
				t.Errorf("missing baseline file: RunDir returned %v", err)
			}
		})
	}

	// An unknown name fails listing every registered suite, in the style of
	// the backend registry's unknown-backend error.
	_, err = Suites("rma,bogus")
	if err == nil {
		t.Fatal("unknown suite accepted")
	}
	for _, want := range append([]string{`unknown suite "bogus"`, "registered:"}, names...) {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-suite error %q does not mention %q", err, want)
		}
	}
	if ss, err := Suites("scale, rma"); err != nil || len(ss) != 2 || ss[0].Name != "scale" || ss[1].Name != "rma" {
		t.Errorf(`Suites("scale, rma") = %v, %v`, ss, err)
	}
}

// A suite run end to end through a directory pair: the record lands in the
// output directory, byte-identical to the committed one, and gates clean
// against it. A suite whose report holds figures hands them back for
// charting, notes included (they are not in the record).
func TestSuiteRunDir(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweeps")
	}
	for _, tc := range []struct {
		suite, text string
		figures     int
	}{
		{"anchors", "Table 1: MPI round-trip overheads with TCP", 10},
		{"rma", "rma/cluster-udp/1048576 ", 0}, // an emulated fence point, listed by its key
		{"ablations", "note: negative result", 10},
	} {
		s := suiteNamed(t, tc.suite)
		out := t.TempDir()
		res, err := s.RunDir(Opts{}, repoRoot, out)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Findings) != 0 {
			t.Fatalf("%s gate failed on the committed baseline: %v", tc.suite, res.Findings)
		}
		written, err := os.ReadFile(filepath.Join(out, s.File()))
		if err != nil {
			t.Fatal(err)
		}
		committed, err := os.ReadFile(filepath.Join(repoRoot, s.File()))
		if err != nil {
			t.Fatal(err)
		}
		if string(written) != string(res.Record) || string(written) != string(committed) {
			t.Fatalf("%s record differs from the committed %s", tc.suite, s.File())
		}
		if !strings.Contains(res.Text, tc.text) {
			t.Fatalf("%s text table lacks %q:\n%s", tc.suite, tc.text, res.Text)
		}
		if len(res.Figures) != tc.figures {
			t.Fatalf("%s result carries %d figures, want %d", tc.suite, len(res.Figures), tc.figures)
		}
	}
}

// One clock per harness: this package reports simulated time and exact
// counters only, so every record is a pure function of the seed. Host time
// is the benchmark module's (benchmark/), and nothing here may read it.
func TestNoHostClock(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range file.Imports {
			if imp.Path.Value == `"testing"` {
				t.Errorf("%s imports \"testing\" outside a test", fset.Position(imp.Pos()))
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
					t.Errorf("%s reads the host clock (time.%s)", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// One gate for every record: against its baseline, a record is checked
// point for point, and any point whose value moved at all is one finding
// that names its key, for repro -explain. Each row moves one number of a
// committed record by a hair: a point of every suite, with or without
// static floors.
func TestGateNamesEveryMovedPoint(t *testing.T) {
	for _, c := range []struct{ suite, from, to, key string }{
		{"anchors", `"measured": 103.88,`, `"measured": 103.881,`, "anchors/low-latency-mpi-1b-round-trip"},
		{"collectives", "75.4016", "75.4017", "collectives/cluster-shm/bcast/binomial/64"},
		{"faults", "1286.968", "1286.969", "faults/cluster-udp/0"},
		{"rma", `"epoch_us": 2`, `"epoch_us": 2.02`, "rma/mem/1024"},
		{"scale", `"events": 7744,`, `"events": 7745,`, "scale/64"},
		{"chaos", `"detect_us": 51,`, `"detect_us": 51.51,`, "chaos/mem/0/2-50us"},
		{"workloads", `"p99_us": 18,`, `"p99_us": 18.18,`, "workloads/allreduce/mem"},
		{"ablations", "159.04", "159.05", "ablations/ablation-a/256b-rtt/1"},
	} {
		s := suiteNamed(t, c.suite)
		record, err := os.ReadFile(filepath.Join(repoRoot, s.File()))
		if err != nil {
			t.Fatal(err)
		}
		if fails, err := s.Check(record, record); err != nil || len(fails) != 0 {
			t.Fatalf("%s against itself: %v %v", s.File(), err, fails)
		}
		edited := []byte(strings.Replace(string(record), c.from, c.to, 1))
		for _, pair := range [][2][]byte{{edited, record}, {record, edited}} {
			fails, err := s.Check(pair[0], pair[1])
			if err != nil || len(fails) != 1 || !strings.HasPrefix(fails[0], c.key+": ") {
				t.Errorf("%s with %s moved to %s: %v %q, want one finding naming %s", c.suite, c.from, c.to, err, fails, c.key)
			}
		}
	}
}

// What no point lists is gated too: with every point equal, a header or
// derived field that moved (chaos's detection p99, a collective's
// crossover, which sits in "backends") is one finding naming the field.
func TestGateNamesUnlistedFields(t *testing.T) {
	for _, c := range []struct{ suite, from, to, field string }{
		{"chaos", `"detect_p99_us": 41864.869,`, `"detect_p99_us": 1,`, "field detect_p99_us: "},
		{"collectives", `"to": "binomial"`, `"to": "pipelined"`, "field backends: "},
	} {
		s := suiteNamed(t, c.suite)
		record, err := os.ReadFile(filepath.Join(repoRoot, s.File()))
		if err != nil {
			t.Fatal(err)
		}
		edited := strings.Replace(string(record), c.from, c.to, 1)
		if edited == string(record) {
			t.Fatalf("%s holds no %s", s.File(), c.from)
		}
		for _, pair := range [][2][]byte{{[]byte(edited), record}, {record, []byte(edited)}} {
			fails, err := s.Check(pair[0], pair[1])
			if err != nil || len(fails) != 1 || !strings.HasPrefix(fails[0], c.field) {
				t.Errorf("%s with %s moved to %s: %v %q, want one finding starting %q", c.suite, c.from, c.to, err, fails, c.field)
			}
		}
	}
}
