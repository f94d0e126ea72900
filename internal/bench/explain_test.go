package bench

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/mpi"
	"repro/platform/registry"
)

// recordKeys lists the points of the suite's committed record.
func recordKeys(t *testing.T, s Suite) []string {
	t.Helper()
	record, err := os.ReadFile(filepath.Join(repoRoot, s.File()))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.points(Opts{}, record)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(pts))
	seen := map[string]bool{}
	for i, p := range pts {
		if seen[p.key] || !strings.HasPrefix(p.key, s.Name+"/") {
			t.Fatalf("%s: point key %q repeated or outside the suite", s.Name, p.key)
		}
		seen[p.key] = true
		keys[i] = p.key
	}
	return keys
}

// explain runs Explain on key against the committed records and returns
// its view.
func explain(t *testing.T, key string) string {
	t.Helper()
	var out bytes.Buffer
	same, err := Explain(Opts{}, key, repoRoot, &out)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	if !same {
		t.Errorf("%s no longer reproduces its record:\n%s", key, out.String()[:min(out.Len(), 400)])
	}
	return out.String()
}

// spentRows checks every rank row of the view's "spent" tables: the
// printed categories sum to the printed finish to the nanosecond. It
// returns the rows checked.
func spentRows(t *testing.T, key, view string) int {
	t.Helper()
	ns := func(field string) int64 {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			t.Fatalf("%s: %q in a spent row: %v", key, field, err)
		}
		return int64(math.Round(v * 1e3))
	}
	rows, spent := 0, false
	for _, line := range strings.Split(view, "\n") {
		switch {
		case strings.HasPrefix(line, "spent us"):
			spent = true
		case spent && strings.HasPrefix(line, "  rank "):
			f := strings.Fields(line)[2:]
			var sum int64
			for _, v := range f[:len(f)-1] {
				sum += ns(v)
			}
			if sum != ns(f[len(f)-1]) {
				t.Errorf("%s: %q: the categories sum to %d ns, not the finish", key, line, sum)
			}
			rows++
		default:
			spent = false
		}
	}
	return rows
}

// Every committed number re-runs on its own to the value in its record:
// one point of each suite, and a seeded sample drawn from all eight. Each
// world an explained point builds prints every rank's spent categories,
// which sum to its finish time exactly.
func TestExplainMatchesRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs points of every suite")
	}
	rng := rand.New(rand.NewSource(46))
	var all, sample []string
	for _, s := range suites {
		keys := recordKeys(t, s)
		sample = append(sample, keys[rng.Intn(len(keys))])
		all = append(all, keys...)
	}
	for _, i := range rng.Perm(len(all))[:24] {
		sample = append(sample, all[i])
	}
	for _, key := range sample {
		view := explain(t, key)
		worlds := strings.Count(view, "\nworld ")
		if rows := spentRows(t, key, view); worlds > 0 && rows == 0 {
			t.Errorf("%s: %d worlds and no spent rows:\n%s", key, worlds, view)
		}
		t.Logf("%s: %d worlds", key, worlds)
	}
}

// The view attributes the paper's round trips: on the Meiko the wire and
// the Elan sync are booked beside the ranks' clocks; over TCP the system
// calls and the kernel's protocol processing are spent on them, the wire
// and the kernel's interrupt-side work booked beside, and so are Table 1's
// reads. A point with no MPI world (the raw TCP anchor) shows its value
// only.
func TestExplainShowsTheLedger(t *testing.T) {
	for key, want := range map[string][]string{
		"anchors/low-latency-mpi-1b-round-trip": {"booked/wire", "booked/sync"},
		"anchors/figure-5/mpi-tcp-atm/1":        {"booked/wire", "spent/syscall", "spent/kernel", "booked/kernel", "booked/read-type"},
		"anchors/tcp-eth-1b-round-trip":         nil,
	} {
		view := explain(t, key)
		if worlds := strings.Count(view, "\nworld "); worlds != min(len(want), 1) {
			t.Errorf("%s: %d worlds", key, worlds)
		}
		spentRows(t, key, view)
		shown := map[string]bool{} // table/category, for every non-zero cell
		lines := strings.Split(view, "\n")
		for i, line := range lines {
			table, _, ok := strings.Cut(line, " us ")
			if !ok || strings.HasPrefix(line, " ") {
				continue
			}
			cols := strings.Fields(line)[2:]
			for _, row := range lines[i+1:] {
				if !strings.HasPrefix(row, "  rank ") {
					break
				}
				for j, v := range strings.Fields(row)[2:] {
					if f, _ := strconv.ParseFloat(v, 64); f > 0 && j < len(cols) {
						shown[table+"/"+cols[j]] = true
					}
				}
			}
		}
		for _, c := range want {
			if !shown[c] {
				t.Errorf("%s: no %s time shown:\n%s", key, c, view)
			}
		}
	}
}

// An unknown point is an error that lists the suite's points, and an
// unknown suite one that lists the suites.
func TestExplainUnknownKey(t *testing.T) {
	_, err := Explain(Opts{}, "rma/mem/3", repoRoot, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), `unknown point "rma/mem/3"`) {
		t.Fatalf("unknown point: %v", err)
	}
	for _, k := range recordKeys(t, suiteNamed(t, "rma")) {
		if !strings.Contains(err.Error(), k) {
			t.Errorf("the error does not list %s: %v", k, err)
		}
	}
	for _, key := range []string{"bogus/x", "all/x"} {
		if _, err := Explain(Opts{}, key, repoRoot, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "registered:") {
			t.Errorf("%s: %v, want the registered suites listed", key, err)
		}
	}
}

// The anchors suite runs each of Table 1's MPI ping-pongs once: three
// anchors and three of the table's rows read the same books, one run per
// medium.
func TestAnchorsMeasureTable1Once(t *testing.T) {
	runs, roundTrips := map[string]int{}, 4*Opts{}.Norm().Iters
	x := &runner{observe: func(spec registry.Spec, rep *mpi.Report, _ *trace.Log) {
		if spec == clusterPair("", spec.Network) && rep.Acct.Count["send"] == int64(2*roundTrips) {
			runs[spec.Network]++
		}
	}}
	s := anchorsSweep(Opts{})
	r := s.skeleton()
	if err := x.measure(s.points(&r)); err != nil {
		t.Fatal(err)
	}
	if runs["atm"] != 1 || runs["eth"] != 1 {
		t.Fatalf("Table 1's ping-pong ran %v times per medium, want once each", runs)
	}
}

// A committed number that the program no longer produces is reported,
// not reproduced: against a copy of the rma record with one epoch edited,
// Explain re-measures the true value and says the two differ.
func TestExplainCatchesAMovedNumber(t *testing.T) {
	record, err := os.ReadFile(filepath.Join(repoRoot, "BENCH_rma.json"))
	if err != nil {
		t.Fatal(err)
	}
	moved := strings.Replace(string(record), `"epoch_us": 2`, `"epoch_us": 3`, 1)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_rma.json"), []byte(moved), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	same, err := Explain(Opts{}, "rma/mem/1024", dir, &out)
	if err != nil || same || !strings.Contains(out.String(), `"epoch_us":3`) || !strings.Contains(out.String(), "DIFFERENT") {
		t.Fatalf("explain of an edited record: same=%v err=%v\n%s", same, err, out.String()[:min(out.Len(), 300)])
	}
	// A record is outside input: one whose coordinates cannot run is an
	// error before any point runs, never a panic (the chaos point would run
	// on the parallel kernel's workers).
	for _, c := range []struct{ suite, from, to, key string }{
		{"rma", `"iters": 5`, `"iters": 0`, "rma/mem/1024"},
		{"chaos", `"ranks": 4`, `"ranks": 0`, "chaos/mem/0/2-50us"},
	} {
		s := suiteNamed(t, c.suite)
		record, err := os.ReadFile(filepath.Join(repoRoot, s.File()))
		if err != nil {
			t.Fatal(err)
		}
		broken := strings.Replace(string(record), c.from, c.to, 1)
		if err := os.WriteFile(filepath.Join(dir, s.File()), []byte(broken), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Explain(Opts{}, c.key, dir, &out); err == nil || !strings.Contains(err.Error(), c.key) || !strings.Contains(err.Error(), "cannot run") {
			t.Fatalf("explain of a record with %s: %v", c.to, err)
		}
	}
}
