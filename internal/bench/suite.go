package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Suite is one registered sweep: a measurement, its committed
// BENCH_<name>.json record, and the gate that compares the two. cmd/repro
// and CI drive every sweep through this one shape, and every suite gates
// by one rule (see moved).
type Suite struct {
	Name string
	// Run decodes baseline (the bytes of an earlier record; nil means none,
	// so only the static floors apply), measures the sweep and gates the
	// fresh report against it.
	Run func(o Opts, baseline []byte) (Result, error)
	// Check gates an existing record against baseline without measuring.
	Check func(record, baseline []byte) ([]string, error)
	// points decodes record and lists its points, each re-measured into the
	// decoded report.
	points func(o Opts, record []byte) ([]point, error)
}

// Result is one run of a suite.
type Result struct {
	Text     string   // the table the CLI prints
	Record   []byte   // the BENCH_<name>.json bytes
	Findings []string // gate failures; empty means the gate passes
	Figures  []Figure // the figures in the report, for charting; most suites have none
}

// suites is the registry, in the order `-suite all` runs them.
var suites = []Suite{
	newSuite("anchors", anchorsSweep, formatAnchorsReport, nil),
	newSuite("collectives", collectivesSweep, nil, nil),
	newSuite("faults", faultsSweep, nil, checkFaults),
	newSuite("rma", rmaSweep, nil, nil),
	newSuite("scale", scaleSweep, nil, checkScale),
	newSuite("chaos", chaosSweep, nil, checkChaos),
	newSuite("workloads", workloadsSweep, nil, checkWorkloads),
	newSuite("ablations", ablationsSweep, func(r AblationsReport) string { return formatFigures(r.Figures) }, nil),
}

// newSuite adapts one report type to a Suite. The record encoding, the
// baseline decoding and the gate live here and nowhere else: a report must
// pass the sweep's static floors, which read it alone (nil for a sweep
// with none), and against a baseline every point must be unmoved. format
// may be nil for a sweep whose text is its point listing. A report with a
// figures method (anchors, ablations) fills Result.Figures.
func newSuite[R any](name string, sweepOf func(Opts) sweep[R], format func(R) string, floors func(R) []string) Suite {
	decode := func(what string, data []byte) (*R, error) {
		r, coords := new(R), any(nil)
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s %s: %w", name, what, err)
		}
		_ = json.Unmarshal(data, &coords) // it decoded as R just now
		return r, runnable(coords)
	}
	if format == nil {
		format = func(r R) string { return listing(sweepOf(Opts{}).points(&r)) }
	}
	// No baseline (nil) is not an error: only the static floors apply.
	decodeBase := func(baseline []byte) (*R, error) {
		if baseline == nil {
			return nil, nil
		}
		return decode("baseline", baseline)
	}
	findings := func(cur, base *R) []string {
		var fails []string
		if floors != nil {
			fails = floors(*cur)
		}
		if base != nil {
			list := sweepOf(Opts{}).points
			m := moved(list(cur), list(base))
			if len(m) == 0 {
				m = unlisted(cur, base)
			}
			fails = append(fails, m...)
		}
		return fails
	}
	return Suite{
		Name: name,
		Run: func(o Opts, baseline []byte) (Result, error) {
			// Decode first: a bad baseline fails before the sweep, not after it.
			base, err := decodeBase(baseline)
			if err != nil {
				return Result{}, err
			}
			cur, err := sweepOf(o).run()
			if err != nil {
				return Result{}, fmt.Errorf("%s: %w", name, err)
			}
			rec, err := json.MarshalIndent(cur, "", "  ")
			if err != nil {
				return Result{}, fmt.Errorf("%s record: %w", name, err)
			}
			res := Result{Text: format(cur), Record: append(rec, '\n'), Findings: findings(&cur, base)}
			if f, ok := any(cur).(interface{ figures() []Figure }); ok {
				res.Figures = f.figures()
			}
			return res, nil
		},
		Check: func(record, baseline []byte) ([]string, error) {
			cur, err := decode("record", record)
			if err != nil {
				return nil, err
			}
			base, err := decodeBase(baseline)
			if err != nil {
				return nil, err
			}
			return findings(cur, base), nil
		},
		points: func(o Opts, record []byte) ([]point, error) {
			r, err := decode("record", record)
			if err != nil {
				return nil, err
			}
			return sweepOf(o).points(r), nil
		},
	}
}

// moved is the baseline rule of every suite: each point the baseline lists
// must be in the fresh report, under its key, with a JSON value byte-equal
// to the baseline's (Explain's "equal"). Each finding names the key, so it
// can be handed to repro -explain; a point only the report has is none.
func moved(cur, base []point) []string {
	have := make(map[string][]byte, len(cur))
	for _, p := range cur {
		have[p.key] = p.encoded()
	}
	var fails []string
	for _, p := range base {
		v, ok := have[p.key]
		if was := p.encoded(); !ok {
			fails = append(fails, fmt.Sprintf("%s: in the baseline, missing from the report", p.key))
		} else if !bytes.Equal(v, was) {
			fails = append(fails, fmt.Sprintf("%s: %s, baseline %s", p.key, v, was))
		}
	}
	return fails
}

// unlisted is the baseline rule for what no point lists (a seed, a p99, a
// crossover) once every point is equal: each top-level field of the
// re-encoded records that differs is one finding that names it.
func unlisted(cur, base any) []string {
	var c, b map[string]json.RawMessage
	for _, r := range [][2]any{{cur, &c}, {base, &b}} {
		data, _ := json.Marshal(r[0])  // it encoded as a record
		_ = json.Unmarshal(data, r[1]) // every report is a JSON object
	}
	keys := slices.AppendSeq(slices.Collect(maps.Keys(c)), maps.Keys(b))
	slices.Sort(keys)
	var fails []string
	for _, k := range slices.Compact(keys) {
		if !bytes.Equal(c[k], b[k]) {
			fails = append(fails, fmt.Sprintf("field %s: differs from the baseline, though every point is equal", k))
		}
	}
	return fails
}

// Suites resolves a comma-separated list of suite names, or "all", against
// the registry.
func Suites(spec string) ([]Suite, error) {
	if spec == "all" {
		return suites, nil
	}
	var out []Suite
	for _, name := range strings.Split(spec, ",") {
		s, err := lookupSuite(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// lookupSuite finds the suite registered as name.
func lookupSuite(name string) (Suite, error) {
	if i := slices.IndexFunc(suites, func(s Suite) bool { return s.Name == name }); i >= 0 {
		return suites[i], nil
	}
	var names []string
	for _, s := range suites {
		names = append(names, s.Name)
	}
	return Suite{}, fmt.Errorf("unknown suite %q (registered: %s)", name, strings.Join(names, ", "))
}

// File is the name of the suite's record inside a baseline or output
// directory.
func (s Suite) File() string { return "BENCH_" + s.Name + ".json" }

// RunDir runs the suite against the record in baselineDir and writes the
// fresh record into outDir; an empty directory name skips that side. The
// record is written even when the gate fails, so CI can upload it.
func (s Suite) RunDir(o Opts, baselineDir, outDir string) (Result, error) {
	var baseline []byte
	if baselineDir != "" {
		var err error
		if baseline, err = os.ReadFile(filepath.Join(baselineDir, s.File())); err != nil {
			return Result{}, fmt.Errorf("%s baseline: %w", s.Name, err)
		}
	}
	res, err := s.Run(o, baseline)
	if err != nil || outDir == "" {
		return res, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	return res, os.WriteFile(filepath.Join(outDir, s.File()), res.Record, 0o644)
}

// runnable rejects a decoded record holding coordinates no sweep lists:
// an "iters" or "ranks" below 1, or "bytes" below 0. A record is outside
// input, and Explain runs the points it lists.
func runnable(v any) error {
	switch v := v.(type) {
	case []any:
		for _, e := range v {
			if err := runnable(e); err != nil {
				return err
			}
		}
	case map[string]any:
		for k, e := range v {
			if n, ok := e.(float64); ok && (n < 1 && (k == "iters" || k == "ranks") || n < 0 && k == "bytes") {
				return fmt.Errorf("%s %v cannot run", k, n)
			}
			if err := runnable(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// listing is the text of a suite that draws no figures: every point of its
// report, one to a line, its key beside its value, so any line is a key to
// hand repro -explain.
func listing(pts []point) string {
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "%-50s %s\n", p.key, p.encoded())
	}
	return b.String()
}
