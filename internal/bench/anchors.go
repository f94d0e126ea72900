package bench

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"repro/internal/atm"
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

// Anchors measures every calibration anchor of DESIGN.md §6 and returns
// the paper-vs-measured table — the single source of truth behind the
// calibration tests.
func Anchors(o Opts) ([]Anchor, error) {
	o = o.Norm()
	iters := o.Iters * 2

	tport := TportPingPong(1, iters)
	lowlat, err := MeikoPingPong("lowlatency", 0, 1, iters)
	if err != nil {
		return nil, err
	}
	mpich, err := MeikoPingPong("mpich", 0, 1, iters)
	if err != nil {
		return nil, err
	}
	cross, err := Figure1Crossover()
	if err != nil {
		return nil, err
	}
	bw, err := MeikoBandwidth("lowlatency", 1<<20, 3)
	if err != nil {
		return nil, err
	}
	tcpEth := RawTCPPingPong(atm.OverEthernet, 1, iters)
	tcpATM := RawTCPPingPong(atm.OverATM, 1, iters)

	tab, err := Table1(o)
	if err != nil {
		return nil, err
	}
	readTypeEth := tab.Rows[2].Eth
	readTypeATM := tab.Rows[2].ATM
	match := tab.Rows[4].Eth

	return []Anchor{
		{"tport 1B round trip", "us", 52, tport, 0.06},
		{"low-latency MPI 1B round trip", "us", 104, lowlat, 0.05},
		{"MPICH 1B round trip", "us", 210, mpich, 0.06},
		{"eager/rendezvous crossover", "bytes", 180, float64(cross), 0.20},
		{"Meiko DMA bandwidth", "MB/s", 39, bw, 0.05},
		{"tcp/eth 1B round trip", "us", 925, tcpEth, 0.05},
		{"tcp/atm 1B round trip", "us", 1065, tcpATM, 0.05},
		{"read for msg type (eth)", "us", 65, readTypeEth, 0.15},
		{"read for msg type (atm)", "us", 85, readTypeATM, 0.15},
		{"matching overhead", "us", 35, match, 0.15},
	}, nil
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

// anchorsRecord measures the anchors suite's record.
func anchorsRecord(o Opts) (AnchorsReport, error) {
	as, err := Anchors(o)
	if err != nil {
		return AnchorsReport{}, err
	}
	rep := AnchorsReport{Anchors: as}
	for _, figure := range append(slices.Clip(PaperFigures), MatMulMeiko) {
		f, err := figure(o)
		if err != nil {
			return AnchorsReport{}, err
		}
		rep.Figures = append(rep.Figures, f)
	}
	tab, err := Table1(o)
	if err != nil {
		return AnchorsReport{}, err
	}
	rep.Table1 = tab.Rows
	return rep, nil
}

// formatAnchorsReport renders the record as the anchor table followed by
// its figures and Table 1.
func formatAnchorsReport(r AnchorsReport) string {
	return FormatAnchors(r.Anchors) + "\n" + formatFigures(r.Figures) + "\n" + Table1Data{r.Table1}.String()
}
