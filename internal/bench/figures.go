package bench

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/apps"
	"repro/internal/atm"
	"repro/mpi"
	"repro/platform/registry"
)

// figureDef is one figure: its metadata and how each of its curves is
// measured at each swept x.
type figureDef struct {
	fig    Figure
	xs     []int
	curves []curve
	note   func(x *runner) (string, error) // a note that needs a measurement
}

// curve is one series of a figure: its name and its measurement at x.
type curve struct {
	name string
	at   func(x *runner, n int) (float64, error)
}

// fig is a figure's metadata: ID, title, axis labels and notes.
func fig(id, title, xLabel, yLabel string, notes ...string) Figure {
	return Figure{ID: id, Title: title, XLabel: xLabel, YLabel: yLabel, Notes: notes}
}

// figuresSweep is the sweep of the figures defs draws. A figure's points
// are keyed suite/figure/series/x, and each is measured by the curve of its
// series' name in the def of its figure's ID.
func figuresSweep(suite string, defs []figureDef) sweep[[]Figure] {
	return sweep[[]Figure]{
		skeleton: func() []Figure {
			figs := make([]Figure, len(defs))
			for i, d := range defs {
				figs[i] = d.fig
				for _, c := range d.curves {
					s := Series{Name: c.name}
					for _, n := range d.xs {
						s.Points = append(s.Points, Point{X: n})
					}
					figs[i].Series = append(figs[i].Series, s)
				}
			}
			return figs
		},
		points: func(figs *[]Figure) []point {
			var pts []point
			for _, f := range *figs {
				for _, s := range f.Series {
					at := curveAt(defs, f.ID, s.Name)
					for i := range s.Points {
						p := &s.Points[i]
						pts = append(pts, value(key(suite, f.ID, s.Name, p.X), &p.Y, func(x *runner) (float64, error) { return at(x, p.X) }))
					}
				}
			}
			return pts
		},
		finish: func(x *runner, figs *[]Figure) error {
			for i, d := range defs {
				if d.note != nil {
					n, err := d.note(x)
					if err != nil {
						return err
					}
					(*figs)[i].Notes = append(slices.Clip((*figs)[i].Notes), n)
				}
			}
			return nil
		},
	}
}

// curveAt is how series name of figure id is measured; an error when defs
// draw no such curve.
func curveAt(defs []figureDef, id, name string) func(x *runner, n int) (float64, error) {
	for _, d := range defs {
		for _, c := range d.curves {
			if d.fig.ID == id && c.name == name {
				return c.at
			}
		}
	}
	return func(*runner, int) (float64, error) { return 0, fmt.Errorf("no curve %q in %q", name, id) }
}

// PaperFigure measures Figure n of the paper (1-9); n = 10 is the §6.1
// matrix multiply.
func PaperFigure(o Opts, n int) (Figure, error) {
	figs, err := figuresSweep("anchors", paperFigures(o)[n-1:n]).run()
	if err != nil {
		return Figure{}, err
	}
	return figs[0], nil
}

// rtt is the curve of the MPI round trip on spec's world.
func rtt(name string, spec registry.Spec, iters int) curve {
	return curve{name, func(x *runner, n int) (float64, error) { return x.rtt(spec, n, iters) }}
}

// bandwidth is the curve of MPI bandwidth on spec's world, 4 chunks of x
// bytes.
func bandwidth(name string, spec registry.Spec) curve {
	return curve{name, func(x *runner, n int) (float64, error) {
		mbs, _, err := x.bandwidth(spec, n, 4)
		return mbs, err
	}}
}

// raw is a curve measured on a bare substrate, with no MPI world.
func raw(name string, at func(n int) float64) curve {
	return curve{name, func(_ *runner, n int) (float64, error) { return at(n), nil }}
}

// app is the curve of body on every rank of spec's world at x ranks: the
// elapsed time body reports on the root in seconds, or, when it reports
// none, the slowest rank's in microseconds.
func app(name string, spec registry.Spec, body func(c *mpi.Comm) (time.Duration, error)) curve {
	return curve{name, func(x *runner, procs int) (float64, error) {
		var root time.Duration
		spec.Ranks = procs
		rep, err := x.launch(spec, func(c *mpi.Comm) error {
			d, err := body(c)
			if c.Rank() == 0 {
				root = d
			}
			return err
		})
		if err != nil || root > 0 {
			return root.Seconds(), err
		}
		return float64(rep.MaxRankElapsed) / 1e3, nil
	}}
}

// paperFigures are the paper's nine figures in its order (Figure N is
// element N-1), then the §6.1 matrix multiply.
func paperFigures(o Opts) []figureDef {
	o = o.Norm()
	lowlat, mpich := meikoPair("lowlatency", 0), meikoPair("mpich", 0)
	meiko := func(impl string) registry.Spec { return registry.Spec{Platform: "meiko", Impl: impl} }
	linsolve := func(c *mpi.Comm) (time.Duration, error) {
		res, err := apps.Linsolve(c, apps.LinsolveConfig{N: 128})
		if err != nil {
			return 0, err
		}
		return res.Elapsed, nil
	}
	matMul := func(c *mpi.Comm) (time.Duration, error) {
		res, err := apps.MatMul(c, apps.MatMulConfig{N: 96})
		if err != nil {
			return 0, err
		}
		return res.Elapsed, nil
	}
	particles := func(cfg apps.ParticlesConfig) func(c *mpi.Comm) (time.Duration, error) {
		return func(c *mpi.Comm) (time.Duration, error) {
			_, err := apps.Particles(c, cfg)
			return 0, err
		}
	}
	meikoParticles, sgiParticles := particles(apps.ParticlesConfig{N: 24, Seed: 1}),
		particles(apps.ParticlesConfig{N: 128, Seed: 2, SecPerFlop: apps.SGISecPerFlop})
	return []figureDef{
		// The buffering (eager) mechanism vs the no-buffering (rendezvous)
		// one, whose intersection the paper measures at 180 bytes.
		{fig: fig("Figure 1", "Meiko transfer mechanisms (round-trip time)", "bytes", "us"),
			xs:     []int{1, 32, 64, 96, 128, 160, 180, 200, 232, 256, 264, 320, 384, 448, 512},
			curves: []curve{rtt("Buffering", meikoPair("lowlatency", 1<<20), o.Iters), rtt("No buffering", meikoPair("lowlatency", 1), o.Iters)},
			note: func(x *runner) (string, error) {
				cross, err := x.crossover()
				return fmt.Sprintf("measured crossover ~%d bytes (paper: 180)", cross), err
			}},
		{fig: fig("Figure 2", "Meiko round-trip latency", "bytes", "us", "paper anchors at 1 byte: tport 52, low latency 104, mpich 210 us"),
			xs: latencySizes,
			curves: []curve{rtt("MPI(mpich)", mpich, o.Iters), rtt("MPI(low latency)", lowlat, o.Iters),
				raw("Meiko tport", func(n int) float64 { return TportPingPong(n, o.Iters) })}},
		{fig: fig("Figure 3", "Meiko bandwidth", "bytes", "MB/s", "paper: best DMA bandwidth of 39 MB/s nearly reached"),
			xs: bandwidthSizes,
			curves: []curve{bandwidth("MPI(mpich)", mpich), bandwidth("MPI(low latency)", lowlat),
				raw("Meiko tport", func(n int) float64 { return TportBandwidth(n, 4) })}},
		{fig: fig("Figure 4", "ATM round-trip latency (raw transports)", "bytes", "us",
			"paper: except for small sizes the protocols are indistinguishable (STREAMS overhead)"),
			xs: latencySizes,
			curves: []curve{raw("TCP", func(n int) float64 { return RawTCPPingPong(atm.OverATM, n, o.Iters) }),
				raw("UDP", func(n int) float64 { return RawUDPPingPong(atm.OverATM, n, o.Iters) }),
				raw("Fore aal4", func(n int) float64 { return RawAAL4PingPong(n, o.Iters) })}},
		{fig: fig("Figure 5", "TCP round-trip latency", "bytes", "us",
			"paper anchors at 1 byte: tcp/eth 925, tcp/atm 1065 us; MPI adds envelope reads + matching"),
			xs: append(slices.Clip(latencySizes), 8192),
			curves: []curve{rtt("mpi/tcp/atm", clusterPair("tcp", "atm"), o.Iters), rtt("mpi/tcp/eth", clusterPair("tcp", "eth"), o.Iters),
				raw("tcp/atm", func(n int) float64 { return RawTCPPingPong(atm.OverATM, n, o.Iters) }),
				raw("tcp/eth", func(n int) float64 { return RawTCPPingPong(atm.OverEthernet, n, o.Iters) })}},
		{fig: fig("Figure 6", "TCP bandwidth", "bytes", "MB/s"),
			xs: []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 512 << 10},
			curves: []curve{bandwidth("mpi/tcp/atm", clusterPair("tcp", "atm")), bandwidth("mpi/tcp/eth", clusterPair("tcp", "eth")),
				raw("tcp/atm", func(n int) float64 { return RawTCPBandwidth(atm.OverATM, 4*n) }),
				raw("tcp/eth", func(n int) float64 { return RawTCPBandwidth(atm.OverEthernet, 4*n) })}},
		// Time vs processes: the hardware broadcast against MPICH's
		// point-to-point one.
		{fig: fig("Figure 7", "Meiko Linear Equation Solver", "# processes", "s", "hardware broadcast vs MPICH's point-to-point broadcast"),
			xs:     []int{1, 2, 4, 8, 16, 32},
			curves: []curve{app("mpich", meiko("mpich"), linsolve), app("low latency", meiko("lowlatency"), linsolve)}},
		{fig: fig("Figure 8", "Meiko Particle Pairwise Interactions (24 particles)", "# processors", "us"),
			xs:     []int{1, 2, 3, 4, 6, 8},
			curves: []curve{app("mpich", meiko("mpich"), meikoParticles), app("low latency", meiko("lowlatency"), meikoParticles)}},
		{fig: fig("Figure 9", "TCP Particle Pairwise Interactions (128 particles)", "# processors", "us",
			"paper: ATM wins — no contention and larger messages exploit its bandwidth"),
			xs: []int{2, 4, 8},
			curves: []curve{app("Ethernet", registry.Spec{Platform: "cluster", Network: "eth"}, sgiParticles),
				app("ATM", registry.Spec{Platform: "cluster", Network: "atm"}, sgiParticles)}},
		// §6.1: "performance results are similar to that of the linear
		// equation solver".
		{fig: fig("MatMul (§6.1)", "Meiko Matrix Multiply", "# processes", "s"),
			xs:     []int{1, 2, 4, 8, 16},
			curves: []curve{app("mpich", meiko("mpich"), matMul), app("low latency", meiko("lowlatency"), matMul)}},
	}
}

// crossover scans for the eager/rendezvous break-even size.
func (x *runner) crossover() (int, error) {
	return once(x, "crossover", func() (int, error) {
		lo := 0
		for n := 16; n <= 512; n += 16 {
			e, err := x.rtt(meikoPair("lowlatency", 1<<20), n, 3)
			if err != nil {
				return 0, err
			}
			r, err := x.rtt(meikoPair("lowlatency", 1), n, 3)
			if err != nil || e > r {
				return lo + 8, err
			}
			lo = n
		}
		return lo, nil
	})
}
