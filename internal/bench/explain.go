package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/mpi"
	"repro/platform/registry"
)

// Explain re-runs one committed point, key, read from BENCH_<suite>.json in
// baselineDir, with every world it builds observed. It writes the committed
// value beside the re-measured one, then, for each world, what each rank's
// clock was spent on, what its devices booked beside it, the counters, the
// shard stats, the message timeline and the per-pair traffic. A point that
// builds no MPI world (a raw substrate, the kernel-only barrier) shows its
// value only. Explain reports whether the two values are equal.
func Explain(o Opts, key, baselineDir string, w io.Writer) (bool, error) {
	name, _, _ := strings.Cut(key, "/")
	s, err := lookupSuite(name)
	if err != nil {
		return false, fmt.Errorf("point %q: %w", key, err)
	}
	record, err := os.ReadFile(filepath.Join(baselineDir, s.File()))
	if err != nil {
		return false, err
	}
	pts, err := s.points(o, record)
	if err != nil {
		return false, fmt.Errorf("point %q: %w", key, err)
	}
	i := slices.IndexFunc(pts, func(p point) bool { return p.key == key })
	if i < 0 {
		keys := make([]string, len(pts))
		for i, p := range pts {
			keys[i] = p.key
		}
		return false, fmt.Errorf("unknown point %q (%s has: %s)", key, name, strings.Join(keys, ", "))
	}
	p := pts[i]
	committed := p.encoded() // it decoded from JSON just now
	var worlds bytes.Buffer
	n := 0
	x := &runner{observe: func(spec registry.Spec, rep *mpi.Report, log *trace.Log) {
		n++
		view(&worlds, n, spec, rep, log)
	}}
	if err := p.measure(x); err != nil {
		return false, fmt.Errorf("point %q: %w", key, err)
	}
	measured, err := json.Marshal(p.at)
	if err != nil {
		return false, err
	}
	same := bytes.Equal(committed, measured)
	verdict := "equal"
	if !same {
		verdict = "DIFFERENT"
	}
	fmt.Fprintf(w, "%s\n  committed %s\n  measured  %s\n  %s; worlds observed: %d\n", key, committed, measured, verdict, n)
	_, err = worlds.WriteTo(w)
	return same, err
}

// catNames names the ledger's categories, in the order a view prints them.
var catNames = [sim.NumCats]string{core.CostWire, core.CostSyscall, core.CostKernel, core.CostCopy, core.CostMatch,
	core.CostProtocol, core.CostSync, core.CostOverhead, core.CostCompute, "read-type", "read-env", "read-data", "parked"}

// viewLines bounds each of a view's listings, so a 2048-rank world's
// timeline does not bury the rest.
const viewLines = 400

// view writes what world n, built from spec, did.
func view(w io.Writer, n int, spec registry.Spec, rep *mpi.Report, log *trace.Log) {
	fmt.Fprintf(w, "\nworld %d: %s, %d ranks: %d events, %d dispatches, drained at %.3f us\n", n, spec.Key(), len(rep.RankElapsed), rep.Events, rep.Dispatches, us(rep.Elapsed))
	ledger(w, "spent us", rep, func(a *core.Acct) [sim.NumCats]sim.Duration { return a.Spent }, rep.RankElapsed)
	ledger(w, "booked us", rep, func(a *core.Acct) [sim.NumCats]sim.Duration { return a.Booked }, nil)
	var b strings.Builder
	for _, name := range slices.Sorted(maps.Keys(rep.Acct.Count)) {
		fmt.Fprintf(&b, "  %-24s %d\n", name, rep.Acct.Count[name])
	}
	head(w, "counters", b.String())
	if st := rep.Shard; st != nil {
		fmt.Fprintf(w, "shard: %d lanes, %d epochs (%d lane stalls), %d routed, mailbox high-water %d, events per lane %d..%d of %d\n",
			st.Lanes, st.Epochs, st.Stalls, st.Routed, st.MailboxHighWater, slices.Min(st.LaneEvents), slices.Max(st.LaneEvents), st.Events)
	}
	head(w, "timeline", log.Timeline())
	b.Reset()
	stats := log.Stats()
	for src := range rep.RankElapsed {
		for dst := range rep.RankElapsed {
			if s := stats[src][dst]; s != nil && s.Messages > 0 {
				fmt.Fprintf(&b, "  %d -> %d: %d msgs, %d bytes", src, dst, s.Messages, s.Bytes)
				if s.Matched > 0 {
					fmt.Fprintf(&b, ", mean arrive->match %.1fus", float64(s.MatchLatency)/float64(s.Matched)/1e3)
				}
				b.WriteByte('\n')
			}
		}
	}
	head(w, "per-pair traffic", b.String())
}

// ledger writes one row per rank of the time book reads from its ledger,
// in columns for every category some rank booked. Given the ranks' finish
// times (the spent book's columns sum to them exactly), rows end with them.
func ledger(w io.Writer, title string, rep *mpi.Report, book func(a *core.Acct) [sim.NumCats]sim.Duration, finish []sim.Duration) {
	var cols []sim.Cat
	for c := range sim.NumCats {
		if slices.ContainsFunc(rep.RankAccts, func(a *core.Acct) bool { return book(a)[c] != 0 }) {
			cols = append(cols, c)
		}
	}
	fmt.Fprintf(w, "%-10s", title)
	for _, c := range cols {
		fmt.Fprintf(w, " %12s", catNames[c])
	}
	if finish != nil {
		fmt.Fprintf(w, " %14s", "= finish")
	}
	for r, a := range rep.RankAccts {
		fmt.Fprintf(w, "\n  rank %-3d", r)
		for _, c := range cols {
			fmt.Fprintf(w, " %12.3f", us(book(a)[c]))
		}
		if finish != nil {
			fmt.Fprintf(w, " %14.3f", us(finish[r]))
		}
	}
	fmt.Fprintln(w)
}

func us(d sim.Duration) float64 { return float64(d) / 1e3 }

// head writes a listing under its title: text's first viewLines lines, and
// how many it left out.
func head(w io.Writer, title, text string) {
	lines := strings.SplitAfter(text, "\n") // every line ends in one
	lines = lines[:len(lines)-1]
	fmt.Fprintf(w, "%s:\n%s", title, strings.Join(lines[:min(len(lines), viewLines)], ""))
	if len(lines) > viewLines {
		fmt.Fprintf(w, "  ... %d more lines\n", len(lines)-viewLines)
	}
}
