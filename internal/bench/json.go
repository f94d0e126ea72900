package bench

import "strings"

// AnchorsReport is the machine-readable record the anchors suite writes as
// BENCH_anchors.json: the calibration anchors (the paper's 1-byte round
// trips, the eager/rendezvous crossover, bandwidth and overhead numbers)
// plus Figures 1 and 2 (the Meiko latency curves), for perf-trajectory
// tracking across revisions.
type AnchorsReport struct {
	Anchors []AnchorJSON `json:"anchors"`
	Figures []FigureJSON `json:"figures,omitempty"`
}

// AnchorJSON is one calibration anchor in the JSON record.
type AnchorJSON struct {
	Name      string  `json:"name"`
	Unit      string  `json:"unit"`
	Paper     float64 `json:"paper"`
	Measured  float64 `json:"measured"`
	Tolerance float64 `json:"tolerance"`
	OK        bool    `json:"ok"`
}

// FigureJSON is one regenerated figure in the JSON record.
type FigureJSON struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	XLabel string       `json:"xlabel"`
	YLabel string       `json:"ylabel"`
	Series []SeriesJSON `json:"series"`
	// notes is the figure's prose, kept for the text table and the chart of
	// a fresh run but not recorded.
	notes []string
}

// SeriesJSON is one curve: points as [x, y] pairs.
type SeriesJSON struct {
	Name   string       `json:"name"`
	Points [][2]float64 `json:"points"`
}

// NewAnchorsReport assembles the JSON record from measured anchors and
// regenerated figures.
func NewAnchorsReport(as []Anchor, figs []Figure) AnchorsReport {
	rep := AnchorsReport{}
	for _, a := range as {
		rep.Anchors = append(rep.Anchors, AnchorJSON{
			Name:      a.Name,
			Unit:      a.Unit,
			Paper:     a.Paper,
			Measured:  a.Measured,
			Tolerance: a.Tolerance,
			OK:        a.Within(),
		})
	}
	for _, f := range figs {
		rep.Figures = append(rep.Figures, f.record())
	}
	return rep
}

// record converts the figure to its JSON form.
func (f Figure) record() FigureJSON {
	fj := FigureJSON{ID: f.ID, Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel, notes: f.Notes}
	for _, s := range f.Series {
		sj := SeriesJSON{Name: s.Name}
		for _, p := range s.Points {
			sj.Points = append(sj.Points, [2]float64{float64(p.X), p.Y})
		}
		fj.Series = append(fj.Series, sj)
	}
	return fj
}

// anchorsRecord measures the anchors suite's record: the ten calibration
// anchors plus Figures 1 and 2.
func anchorsRecord(o Opts) (AnchorsReport, error) {
	as, err := Anchors(o)
	if err != nil {
		return AnchorsReport{}, err
	}
	f1, err := Figure1(o)
	if err != nil {
		return AnchorsReport{}, err
	}
	f2, err := Figure2(o)
	if err != nil {
		return AnchorsReport{}, err
	}
	return NewAnchorsReport(as, []Figure{f1, f2}), nil
}

// figure rebuilds the plottable figure from its record.
func (fj FigureJSON) figure() Figure {
	f := Figure{ID: fj.ID, Title: fj.Title, XLabel: fj.XLabel, YLabel: fj.YLabel, Notes: fj.notes}
	for _, s := range fj.Series {
		ser := Series{Name: s.Name}
		for _, p := range s.Points {
			ser.Points = append(ser.Points, Point{X: int(p[0]), Y: p[1]})
		}
		f.Series = append(f.Series, ser)
	}
	return f
}

// formatAnchorsReport renders the record as the anchor table followed by
// its figures.
func formatAnchorsReport(r AnchorsReport) string {
	as := make([]Anchor, len(r.Anchors))
	for i, a := range r.Anchors {
		as[i] = Anchor{Name: a.Name, Unit: a.Unit, Paper: a.Paper, Measured: a.Measured, Tolerance: a.Tolerance}
	}
	var b strings.Builder
	b.WriteString(FormatAnchors(as))
	for _, f := range r.figures() {
		b.WriteByte('\n')
		b.WriteString(f.String())
	}
	return b.String()
}

// figuresOf rebuilds the plottable figures of a record.
func figuresOf(fjs []FigureJSON) []Figure {
	figs := make([]Figure, len(fjs))
	for i, fj := range fjs {
		figs[i] = fj.figure()
	}
	return figs
}

func (r AnchorsReport) figures() []Figure { return figuresOf(r.Figures) }
