package bench

import (
	"slices"
	"strings"
	"testing"
)

var quick = Opts{Iters: 3}

// ablation measures the one ablation figure called id.
func ablation(id string) (Figure, error) {
	defs := ablationDefs(quick)
	i := slices.IndexFunc(defs, func(d figureDef) bool { return d.fig.ID == id })
	figs, err := figuresSweep("ablations", defs[i:i+1]).run()
	return figs[0], err
}

func checkFigure(t *testing.T, f Figure, err error, wantSeries int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != wantSeries {
		t.Fatalf("%s: %d series, want %d", f.ID, len(f.Series), wantSeries)
	}
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			t.Fatalf("%s/%s: no points", f.ID, s.Name)
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Fatalf("%s/%s: non-positive value at %d", f.ID, s.Name, p.X)
			}
		}
	}
	if !strings.Contains(f.String(), f.ID) {
		t.Fatalf("%s: String() missing ID", f.ID)
	}
}

func TestFigure1(t *testing.T) {
	f, err := PaperFigure(quick, 1)
	checkFigure(t, f, err, 2)
	// Eager wins below the crossover; rendezvous above.
	eager, rndv := f.Series[0], f.Series[1]
	if y1, _ := lookup(eager, 64); true {
		if y2, _ := lookup(rndv, 64); y1 >= y2 {
			t.Fatalf("64B: eager %f >= rndv %f", y1, y2)
		}
	}
	if y1, _ := lookup(eager, 512); true {
		if y2, _ := lookup(rndv, 512); y1 <= y2 {
			t.Fatalf("512B: eager %f <= rndv %f", y1, y2)
		}
	}
}

func TestFigure1CrossoverNear180(t *testing.T) {
	c, err := (&runner{}).crossover()
	if err != nil {
		t.Fatal(err)
	}
	if c < 140 || c > 230 {
		t.Fatalf("crossover = %d, want near 180", c)
	}
}

func TestFigure2(t *testing.T) {
	f, err := PaperFigure(quick, 2)
	checkFigure(t, f, err, 3)
	// Ordering at every size: tport < lowlat < mpich.
	for _, p := range f.Series[2].Points {
		l, _ := lookup(f.Series[1], p.X)
		m, _ := lookup(f.Series[0], p.X)
		if !(p.Y < l && l < m) {
			t.Fatalf("size %d: tport %f, lowlat %f, mpich %f out of order", p.X, p.Y, l, m)
		}
	}
}

func TestFigure3(t *testing.T) {
	f, err := PaperFigure(quick, 3)
	checkFigure(t, f, err, 3)
	// Largest-size low-latency bandwidth near the DMA limit.
	pts := f.Series[1].Points
	if last := pts[len(pts)-1]; last.Y < 30 || last.Y > 41 {
		t.Fatalf("lowlat bandwidth = %f MB/s", last.Y)
	}
}

func TestFigure4(t *testing.T) {
	f, err := PaperFigure(quick, 4)
	checkFigure(t, f, err, 3)
	// All three transports within ~40% of each other at 512B.
	var ys []float64
	for _, s := range f.Series {
		y, ok := lookup(s, 512)
		if !ok {
			t.Fatal("missing 512B point")
		}
		ys = append(ys, y)
	}
	for _, y := range ys {
		if y < ys[0]*0.6 || y > ys[0]*1.4 {
			t.Fatalf("Figure 4 transports diverge: %v", ys)
		}
	}
}

func TestFigure5(t *testing.T) {
	f, err := PaperFigure(quick, 5)
	checkFigure(t, f, err, 4)
	// MPI above raw on both media at 1 byte.
	ma, _ := lookup(f.Series[0], 1)
	ra, _ := lookup(f.Series[2], 1)
	me, _ := lookup(f.Series[1], 1)
	re, _ := lookup(f.Series[3], 1)
	if ma <= ra || me <= re {
		t.Fatalf("MPI not above raw: atm %f vs %f, eth %f vs %f", ma, ra, me, re)
	}
}

func TestFigure6(t *testing.T) {
	f, err := PaperFigure(quick, 6)
	checkFigure(t, f, err, 4)
}

func TestTable1(t *testing.T) {
	tab, err := Table1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	get := func(name string) Table1Row {
		for _, r := range tab.Rows {
			if strings.Contains(r.Name, name) {
				return r
			}
		}
		t.Fatalf("row %q missing", name)
		return Table1Row{}
	}
	rtt := get("round-trip")
	if rtt.Eth < 880 || rtt.Eth > 970 || rtt.ATM < 1010 || rtt.ATM > 1120 {
		t.Fatalf("base RTT row off: %+v", rtt)
	}
	rt := get("msg type")
	if rt.Eth < 50 || rt.Eth > 90 || rt.ATM < 65 || rt.ATM > 115 {
		t.Fatalf("read-type row off: %+v", rt)
	}
	m := get("matching")
	if m.Eth < 30 || m.Eth > 80 {
		t.Fatalf("matching row off: %+v", m)
	}
	if !strings.Contains(tab.String(), "Table 1") {
		t.Fatal("table renders without title")
	}
}

func TestFigure7(t *testing.T) {
	f, err := PaperFigure(quick, 7)
	checkFigure(t, f, err, 2)
	// lowlat <= mpich at each P, and both speed up from P=1 to P=8.
	for _, p := range f.Series[0].Points {
		l, _ := lookup(f.Series[1], p.X)
		if l > p.Y {
			t.Fatalf("P=%d: lowlat %f > mpich %f", p.X, l, p.Y)
		}
	}
	first := f.Series[1].Points[0].Y
	last := f.Series[1].Points[len(f.Series[1].Points)-1].Y
	if last >= first {
		t.Fatalf("no speedup: %f -> %f", first, last)
	}
}

func TestFigure8(t *testing.T) {
	f, err := PaperFigure(quick, 8)
	checkFigure(t, f, err, 2)
}

func TestFigure9(t *testing.T) {
	f, err := PaperFigure(quick, 9)
	checkFigure(t, f, err, 2)
	for _, p := range f.Series[0].Points { // Ethernet series
		a, _ := lookup(f.Series[1], p.X)
		if a >= p.Y {
			t.Fatalf("P=%d: atm %f >= eth %f", p.X, a, p.Y)
		}
	}
}

func TestMatMul(t *testing.T) {
	f, err := PaperFigure(quick, 10)
	checkFigure(t, f, err, 2)
}

func TestAblationThreshold(t *testing.T) {
	f, err := ablation("Ablation A")
	checkFigure(t, f, err, 1)
	// 256B messages: rendezvous (threshold < 256) beats forced eager
	// (threshold >= 256).
	lo, _ := lookup(f.Series[0], 180)
	hi, _ := lookup(f.Series[0], 1024)
	if lo >= hi {
		t.Fatalf("threshold sweep inverted: rndv %f >= eager %f", lo, hi)
	}
}

func TestAblationBcast(t *testing.T) {
	f, err := ablation("Ablation B")
	checkFigure(t, f, err, 3)
	// Hardware fastest at 16 ranks; binomial beats linear.
	hw, _ := lookup(f.Series[0], 16)
	bin, _ := lookup(f.Series[1], 16)
	lin, _ := lookup(f.Series[2], 16)
	if !(hw < bin && bin < lin) {
		t.Fatalf("bcast ordering: hw %f, binomial %f, linear %f", hw, bin, lin)
	}
}

func TestAblationUDPLoss(t *testing.T) {
	f, err := ablation("Ablation C")
	checkFigure(t, f, err, 1)
	clean, _ := lookup(f.Series[0], 0)
	lossy, _ := lookup(f.Series[0], 20)
	if lossy <= clean {
		t.Fatalf("loss did not raise RTT: %f vs %f", clean, lossy)
	}
}

func TestAblationMatchLocation(t *testing.T) {
	f, err := ablation("Ablation D")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f.Series[0].Points {
		if p.Y <= 0 {
			t.Fatalf("mpich faster than lowlat at %d bytes (%f)", p.X, p.Y)
		}
	}
}

func TestAblationNonblockingOverlap(t *testing.T) {
	f, err := ablation("Ablation E")
	checkFigure(t, f, err, 2)
	// With 5ms of compute, nonblocking must be clearly faster.
	b, _ := lookup(f.Series[0], 5)
	n, _ := lookup(f.Series[1], 5)
	if n >= b {
		t.Fatalf("no overlap benefit: nonblocking %f >= blocking %f", n, b)
	}
}

func TestSVGRendering(t *testing.T) {
	f := Figure{
		ID: "Figure X", Title: "test & demo", XLabel: "bytes", YLabel: "us",
		Series: []Series{
			{Name: "a<b", Points: []Point{{1, 10}, {1024, 500}, {65536, 900}}},
			{Name: "c", Points: []Point{{1, 20}, {1024, 100}, {65536, 300}}},
		},
		Notes: []string{"note"},
	}
	svg := f.SVG()
	for _, want := range []string{"<svg", "polyline", "a&lt;b", "test &amp; demo", "</svg>", "64K"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("svg missing %q", want)
		}
	}
	// Empty figure does not panic.
	if out := (Figure{}).SVG(); !strings.Contains(out, "<svg") {
		t.Fatal("empty figure svg")
	}
	// Linear axis for process counts.
	lin := Figure{Series: []Series{{Name: "s", Points: []Point{{1, 1}, {8, 2}}}}}
	if out := lin.SVG(); !strings.Contains(out, "<svg") {
		t.Fatal("linear figure svg")
	}
}

func TestAblationNagle(t *testing.T) {
	f, err := ablation("Ablation F")
	checkFigure(t, f, err, 1)
	nodelay, _ := lookup(f.Series[0], 0)
	nagle, _ := lookup(f.Series[0], 1)
	if nagle < 3*nodelay {
		t.Fatalf("nagle per-message %f us not clearly above nodelay %f us", nagle, nodelay)
	}
}

func TestAblationBcastLarge(t *testing.T) {
	f, err := ablation("Ablation B2")
	checkFigure(t, f, err, 3)
	hw, _ := lookup(f.Series[0], 16)
	bin, _ := lookup(f.Series[1], 16)
	pipe, _ := lookup(f.Series[2], 16)
	// At bulk sizes the pipelined chain wins: its rendezvous payloads land
	// directly in user buffers, while the hardware broadcast pays a
	// slot-to-user copy and the binomial tree repeats full payload times.
	if !(pipe < bin && pipe < hw) {
		t.Fatalf("large bcast ordering: hw %f, pipelined %f, binomial %f", hw, pipe, bin)
	}
}

func TestAblationUNet(t *testing.T) {
	f, err := ablation("Ablation G")
	checkFigure(t, f, err, 1)
	unet, _ := lookup(f.Series[0], 0)
	tcp, _ := lookup(f.Series[0], 2)
	if unet > tcp/5 {
		t.Fatalf("unet MPI RTT %f us not dramatically under tcp %f us", unet, tcp)
	}
	if unet < 50 || unet > 400 {
		t.Fatalf("unet MPI RTT %f us outside plausible range", unet)
	}
}

func TestAblationSlots(t *testing.T) {
	f, err := ablation("Ablation H")
	checkFigure(t, f, err, 1)
	one, _ := lookup(f.Series[0], 1)
	eight, _ := lookup(f.Series[0], 8)
	// Negative result, and the point of the ablation: receiver-side
	// processing dominates the slot-free round trip, so extra slots buy
	// (almost) nothing — the quantitative case for the paper's single
	// preallocated envelope per pair.
	if eight > one || one > eight*1.10 {
		t.Fatalf("slots sweep: 1 slot %f vs 8 slots %f us/msg; expected within 10%%", one, eight)
	}
}

func TestAblationCredits(t *testing.T) {
	f, err := ablation("Ablation I")
	checkFigure(t, f, err, 1)
	small, _ := lookup(f.Series[0], 2)
	big, _ := lookup(f.Series[0], 64)
	if big >= small {
		t.Fatalf("64KB reservation (%f us/msg) not faster than 2KB (%f)", big, small)
	}
}

func TestAnchorsAllWithinBand(t *testing.T) {
	as, err := Anchors(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 10 {
		t.Fatalf("anchors = %d", len(as))
	}
	for _, a := range as {
		if !a.Within() {
			t.Errorf("%s: paper %.1f%s, measured %.1f%s (out of band)", a.Name, a.Paper, a.Unit, a.Measured, a.Unit)
		}
	}
	out := FormatAnchors(as)
	if !strings.Contains(out, "PASS") || strings.Contains(out, "OUT OF BAND") {
		t.Fatalf("render:\n%s", out)
	}
}
