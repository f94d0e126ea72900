// Package bench regenerates every table and figure of the paper's
// evaluation: the Meiko transfer-mechanism and latency/bandwidth plots
// (Figures 1-3), the cluster transport comparisons (Figures 4-6, Table 1),
// and the application results (Figures 7-9), plus ablations over the
// design choices DESIGN.md calls out, and the registered suites behind the
// committed BENCH_*.json records (suite.go). Everything it reports is
// simulated time or an exact counter, a pure function of the seed; host time
// is measured by the benchmark module (benchmark/) and nowhere here.
// cmd/repro drives this package.
package bench

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// Opts tunes experiment effort.
type Opts struct {
	// Iters is the per-point repetition count (virtual time is
	// deterministic, so iterations only smooth pipeline warmup).
	Iters int
}

// Norm fills defaults.
func (o Opts) Norm() Opts {
	if o.Iters == 0 {
		o.Iters = 5
	}
	return o
}

// Point is one measurement: X is the swept parameter (bytes, processes),
// Y the measured value (µs, MB/s, seconds). A record holds it as [x, y].
type Point struct {
	X int
	Y float64
}

// MarshalJSON encodes the point as the pair [x, y].
func (p Point) MarshalJSON() ([]byte, error) {
	return json.Marshal([2]float64{float64(p.X), p.Y})
}

// UnmarshalJSON decodes the pair [x, y].
func (p *Point) UnmarshalJSON(data []byte) error {
	var xy [2]float64
	if err := json.Unmarshal(data, &xy); err != nil {
		return err
	}
	p.X, p.Y = int(xy[0]), xy[1]
	return nil
}

// Series is one curve of a figure.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// Figure is a regenerated plot: the same series the paper draws. It is its
// own record in a BENCH_*.json; Notes, the figure's prose, is kept for the
// text table and the chart of a fresh run but not recorded.
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"xlabel"`
	YLabel string   `json:"ylabel"`
	Series []Series `json:"series"`
	Notes  []string `json:"-"`
}

// String renders the figure as an aligned text table, series as columns.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	var xs []int // the union of X values
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs = append(xs, p.X)
		}
	}
	slices.Sort(xs)

	fmt.Fprintf(&b, "%12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %18s", s.Name)
	}
	fmt.Fprintf(&b, "   (%s)\n", f.YLabel)
	for _, x := range slices.Compact(xs) {
		fmt.Fprintf(&b, "%12d", x)
		for _, s := range f.Series {
			y, ok := lookup(s, x)
			if !ok {
				fmt.Fprintf(&b, " %18s", "-")
				continue
			}
			fmt.Fprintf(&b, " %18.2f", y)
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// formatFigures renders figures as text tables, a blank line between them.
func formatFigures(figs []Figure) string {
	tables := make([]string, len(figs))
	for i, f := range figs {
		tables[i] = f.String()
	}
	return strings.Join(tables, "\n")
}

func lookup(s Series, x int) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// The message sizes the paper's latency and bandwidth figures sweep.
var (
	latencySizes   = []int{1, 4, 16, 32, 64, 96, 128, 160, 180, 200, 256, 384, 512, 1024, 2048, 4096}
	bandwidthSizes = []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
)
