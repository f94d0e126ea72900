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

func TestDrift(t *testing.T) {
	type pt struct {
		name       string
		cost, rate float64
		live       bool
	}
	key := func(p pt) string { return p.name }
	cost := lower("cost", func(p pt) float64 { return p.cost })
	rate := higher("rate", func(p pt) float64 { return p.rate })
	base := []pt{{"a", 100, 100, true}, {"b", 100, 100, true}}

	for _, tc := range []struct {
		name string
		cur  []pt
		tol  float64
		ms   []metric[pt]
		want []string // one substring per expected finding, in order
	}{
		{"identical", base, 0.10, []metric[pt]{cost, rate}, nil},
		{"identical exact", base, 0, []metric[pt]{cost, rate}, nil},
		{"extra current point is not a finding", append([]pt{{"c", 1, 1, true}}, base...), 0.10, []metric[pt]{cost, rate}, nil},
		{"dropped point", base[:1], 0.10, []metric[pt]{cost}, []string{"thing b: in the baseline, dropped"}},
		{"lower-is-better at tol", []pt{{"a", 110, 100, true}, base[1]}, 0.10, []metric[pt]{cost}, nil},
		{"lower-is-better past tol", []pt{{"a", 110.1, 100, true}, base[1]}, 0.10, []metric[pt]{cost}, []string{"thing a: cost 110.1 regressed >10% from baseline 100"}},
		{"lower-is-better improved", []pt{{"a", 50, 100, true}, base[1]}, 0.10, []metric[pt]{cost}, nil},
		{"higher-is-better at tol", []pt{base[0], {"b", 100, 90, true}}, 0.10, []metric[pt]{rate}, nil},
		{"higher-is-better past tol", []pt{base[0], {"b", 100, 89.9, true}}, 0.10, []metric[pt]{rate}, []string{"thing b: rate 89.9 regressed >10% from baseline 100"}},
		{"higher-is-better improved", []pt{base[0], {"b", 100, 200, true}}, 0.10, []metric[pt]{rate}, nil},
		{"exact mismatch up", []pt{{"a", 101, 100, true}, base[1]}, 0, []metric[pt]{cost}, []string{"thing a: cost 101 differs from baseline 100"}},
		{"exact mismatch down, either direction", []pt{{"a", 99, 100, true}, {"b", 100, 101, true}}, 0, []metric[pt]{cost, rate}, []string{"thing a: cost 99", "thing b: rate 101"}},
		{"findings in baseline then metric order", []pt{{"a", 200, 1, true}, {"b", 200, 100, true}}, 0.10, []metric[pt]{cost, rate}, []string{"a: cost", "a: rate", "b: cost"}},
		{"metric undefined on the current point", []pt{{"a", 200, 100, false}, base[1]}, 0.10, []metric[pt]{cost.when(func(p pt) bool { return p.live })}, nil},
		{"metric undefined on the baseline point", []pt{{"a", 200, 100, true}, base[1]}, 0.10, []metric[pt]{cost.when(func(p pt) bool { return p.cost > 150 })}, nil},
	} {
		got := drift("thing", tc.cur, base, key, tc.tol, tc.ms...)
		if len(got) != len(tc.want) {
			t.Errorf("%s: findings %q, want %d", tc.name, got, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: finding %d = %q, want it to contain %q", tc.name, i, got[i], w)
			}
		}
	}
}
