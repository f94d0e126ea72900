package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Anchor is one calibration target from the paper, with the measured value.
type Anchor struct {
	Name      string  `json:"name"`
	Unit      string  `json:"unit"`
	Paper     float64 `json:"paper"`
	Measured  float64 `json:"measured"`
	Tolerance float64 `json:"tolerance"` // acceptable relative error
}

// MarshalJSON records the anchor with its verdict, "ok": Within().
func (a Anchor) MarshalJSON() ([]byte, error) {
	type fields Anchor
	return json.Marshal(struct {
		fields
		OK bool `json:"ok"`
	}{fields(a), a.Within()})
}

// Within reports whether the measurement sits inside the tolerance band.
func (a Anchor) Within() bool {
	if a.Paper == 0 {
		return false
	}
	rel := (a.Measured - a.Paper) / a.Paper
	if rel < 0 {
		rel = -rel
	}
	return rel <= a.Tolerance
}

// anchorDef is one calibration anchor and how it is measured.
type anchorDef struct {
	Anchor
	at func(x *runner) (float64, error)
}

// anchorDefs are the calibration anchors of DESIGN.md §6, in the record's
// order. Three of them are Table 1 cells, read from its ping-pongs.
func anchorDefs(o Opts) []anchorDef {
	o = o.Norm()
	iters := o.Iters * 2
	rtt := func(impl string) func(x *runner) (float64, error) {
		return func(x *runner) (float64, error) { return x.rtt(meikoPair(impl, 0), 1, iters) }
	}
	rawTCP := func(net string) func(x *runner) (float64, error) {
		return func(x *runner) (float64, error) { return x.rawTCP(net, 1, iters), nil }
	}
	cell := func(row int, net string) func(x *runner) (float64, error) {
		return func(x *runner) (float64, error) { return table1Cell(x, row, net, 4*o.Iters) }
	}
	return []anchorDef{
		{Anchor{"tport 1B round trip", "us", 52, 0, 0.06}, func(*runner) (float64, error) { return TportPingPong(1, iters), nil }},
		{Anchor{"low-latency MPI 1B round trip", "us", 104, 0, 0.05}, rtt("lowlatency")},
		{Anchor{"MPICH 1B round trip", "us", 210, 0, 0.06}, rtt("mpich")},
		{Anchor{"eager/rendezvous crossover", "bytes", 180, 0, 0.20}, func(x *runner) (float64, error) {
			cross, err := x.crossover()
			return float64(cross), err
		}},
		{Anchor{"Meiko DMA bandwidth", "MB/s", 39, 0, 0.05}, func(x *runner) (float64, error) {
			bw, _, err := x.bandwidth(meikoPair("lowlatency", 0), 1<<20, 3)
			return bw, err
		}},
		{Anchor{"tcp/eth 1B round trip", "us", 925, 0, 0.05}, rawTCP("eth")},
		{Anchor{"tcp/atm 1B round trip", "us", 1065, 0, 0.05}, rawTCP("atm")},
		{Anchor{"read for msg type (eth)", "us", 65, 0, 0.15}, cell(2, "eth")},
		{Anchor{"read for msg type (atm)", "us", 85, 0, 0.15}, cell(2, "atm")},
		{Anchor{"matching overhead", "us", 35, 0, 0.15}, cell(4, "eth")},
	}
}

// Anchors measures every calibration anchor of DESIGN.md §6 and returns
// the paper-vs-measured table — the single source of truth behind the
// calibration tests.
func Anchors(o Opts) ([]Anchor, error) {
	s := anchorsSweep(o)
	r := AnchorsReport{Anchors: s.skeleton().Anchors}
	err := new(runner).measure(s.points(&r))
	return r.Anchors, err
}

// FormatAnchors renders the anchor table.
func FormatAnchors(as []Anchor) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Calibration anchors (paper vs measured):\n")
	fmt.Fprintf(&b, "%-34s %10s %10s %7s  %s\n", "anchor", "paper", "measured", "err", "ok")
	for _, a := range as {
		rel := (a.Measured - a.Paper) / a.Paper * 100
		ok := "PASS"
		if !a.Within() {
			ok = "OUT OF BAND"
		}
		fmt.Fprintf(&b, "%-34s %8.1f%s %8.1f%s %+6.1f%%  %s\n", a.Name, a.Paper, a.Unit, a.Measured, a.Unit, rel, ok)
	}
	return b.String()
}

// AnchorsReport is the machine-readable record the anchors suite writes as
// BENCH_anchors.json: the calibration anchors (the paper's 1-byte round
// trips, the eager/rendezvous crossover, bandwidth and overhead numbers),
// then everything the paper's evaluation plots — Figures 1 to 9 and the §6.1
// matrix multiply, in that order, and Table 1's rows.
type AnchorsReport struct {
	Anchors []Anchor    `json:"anchors"`
	Figures []Figure    `json:"figures,omitempty"`
	Table1  []Table1Row `json:"table1,omitempty"`
}

func (r AnchorsReport) figures() []Figure { return r.Figures }

// anchorsSweep is the anchors suite's record: the anchors, then every
// figure, then Table 1. Each ping-pong they share runs once.
func anchorsSweep(o Opts) sweep[AnchorsReport] {
	defs, figs := anchorDefs(o), figuresSweep("anchors", paperFigures(o))
	iters := 4 * o.Norm().Iters
	return sweep[AnchorsReport]{
		skeleton: func() AnchorsReport {
			r := AnchorsReport{Figures: figs.skeleton()}
			for _, d := range defs {
				r.Anchors = append(r.Anchors, d.Anchor)
			}
			for _, name := range table1Rows {
				r.Table1 = append(r.Table1, Table1Row{Name: name})
			}
			return r
		},
		points: func(r *AnchorsReport) []point {
			pts := each(r.Anchors, func(a Anchor) string { return key("anchors", a.Name) }, func(x *runner, a Anchor) (Anchor, error) {
				d := slices.IndexFunc(defs, func(d anchorDef) bool { return d.Name == a.Name })
				if d < 0 {
					return a, fmt.Errorf("no anchor %q", a.Name)
				}
				var err error
				a.Measured, err = defs[d].at(x)
				return a, err
			})
			pts = append(pts, figs.points(&r.Figures)...)
			return append(pts, each(r.Table1, func(row Table1Row) string { return key("anchors", "table1", row.Name) },
				func(x *runner, row Table1Row) (Table1Row, error) {
					n := slices.Index(table1Rows, row.Name)
					if n < 0 {
						return row, fmt.Errorf("no Table 1 row %q", row.Name)
					}
					atmUS, err := table1Cell(x, n, "atm", iters)
					ethUS, err2 := table1Cell(x, n, "eth", iters)
					return Table1Row{row.Name, atmUS, ethUS}, errors.Join(err, err2)
				})...)
		},
		finish: func(x *runner, r *AnchorsReport) error { return figs.finish(x, &r.Figures) },
	}
}

// Table1Data is the regenerated Table 1: the MPI-over-TCP overhead
// breakdown for a 1-byte message, per medium, derived from the engine's
// cost accounting rather than subtraction.
type Table1Data struct {
	Rows []Table1Row
}

// Table1Row is one line of the table (values in µs).
type Table1Row struct {
	Name string  `json:"name"`
	ATM  float64 `json:"atm_us"`
	Eth  float64 `json:"eth_us"`
}

// String renders the table like the paper's.
func (t Table1Data) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: MPI round-trip overheads with TCP\n")
	fmt.Fprintf(&b, "%12s %12s   %s\n", "ATM", "Ethernet", "Overhead")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%9.0f us %9.0f us   %s\n", r.ATM, r.Eth, r.Name)
	}
	return b.String()
}

// table1Rows are Table 1's rows, in the paper's order.
var table1Rows = []string{"1 byte round-trip latency", "25 byte info overhead (round trip)",
	"Read for msg type", "Read for envelope", "Overheads for matching"}

// table1Cell measures row i of Table 1 on medium net ("atm" | "eth") at
// iters round trips: the first two rows on raw TCP, the others from rank
// 1's books after a 1-byte MPI ping-pong.
func table1Cell(x *runner, i int, net string, iters int) (float64, error) {
	switch i {
	case 0:
		return x.rawTCP(net, 1, iters), nil
	case 1: // the 25-byte protocol header's wire cost
		return x.rawTCP(net, 26, iters) - x.rawTCP(net, 1, iters), nil
	}
	_, rep, err := x.pingPong(clusterPair("", net), 1, iters)
	if err != nil {
		return 0, err
	}
	acct := rep.RankAccts[1].View()
	label, per := []string{"read-type", "read-env", "match"}[i-2], []string{"read-type", "read-env", "recv"}[i-2]
	if acct.Count[per] == 0 {
		return 0, nil
	}
	return float64(acct.Time[label]) / float64(acct.Count[per]) / 1e3, nil
}

// Table1 regenerates the overhead breakdown.
func Table1(o Opts) (Table1Data, error) {
	s := anchorsSweep(o)
	r := AnchorsReport{Table1: s.skeleton().Table1}
	err := new(runner).measure(s.points(&r))
	return Table1Data{r.Table1}, err
}

// formatAnchorsReport renders the record as the anchor table followed by
// its figures and Table 1.
func formatAnchorsReport(r AnchorsReport) string {
	return FormatAnchors(r.Anchors) + "\n" + formatFigures(r.Figures) + "\n" + Table1Data{r.Table1}.String()
}
