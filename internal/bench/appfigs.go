package bench

import (
	"time"

	"repro/internal/apps"
	"repro/mpi"
	"repro/platform/registry"
)

// rootSeconds runs app on every rank of a procs-node Meiko and reports the
// elapsed seconds the root's run of it measured. impl is a registry
// implementation name ("lowlatency" | "mpich").
func rootSeconds(impl string, procs int, app func(c *mpi.Comm) (time.Duration, error)) (float64, error) {
	var el time.Duration
	_, err := registry.Run(registry.Spec{Platform: "meiko", Impl: impl, Ranks: procs}, func(c *mpi.Comm) error {
		d, err := app(c)
		if c.Rank() == 0 {
			el = d
		}
		return err
	})
	return el.Seconds(), err
}

// LinsolveMeiko runs the Figure 7 solver and reports the root's elapsed
// seconds.
func LinsolveMeiko(impl string, procs, n int) (float64, error) {
	return rootSeconds(impl, procs, func(c *mpi.Comm) (time.Duration, error) {
		res, err := apps.Linsolve(c, apps.LinsolveConfig{N: n})
		if err != nil {
			return 0, err
		}
		return res.Elapsed, nil
	})
}

// Figure7 regenerates "Meiko Linear Equation Solver": time vs processes
// for the MPICH and low-latency implementations.
func Figure7(Opts) (Figure, error) {
	return Figure{
		ID:     "Figure 7",
		Title:  "Meiko Linear Equation Solver",
		XLabel: "# processes",
		YLabel: "s",
		Notes:  []string{"hardware broadcast vs MPICH's point-to-point broadcast"},
	}.sweep([]int{1, 2, 4, 8, 16, 32},
		curve{"mpich", func(p int) (float64, error) { return LinsolveMeiko("mpich", p, 128) }},
		curve{"low latency", func(p int) (float64, error) { return LinsolveMeiko("lowlatency", p, 128) }})
}

// ParticlesMeiko runs the Figure 8 ring and reports the slowest rank's
// elapsed microseconds.
func ParticlesMeiko(impl string, procs, n int) (float64, error) {
	return elapsedUS(registry.Spec{Platform: "meiko", Impl: impl, Ranks: procs}, func(c *mpi.Comm) error {
		_, err := apps.Particles(c, apps.ParticlesConfig{N: n, Seed: 1})
		return err
	})
}

// Figure8 regenerates "Meiko Particle Pairwise Interactions": 24 particles
// on 1-8 processes.
func Figure8(Opts) (Figure, error) {
	return Figure{
		ID:     "Figure 8",
		Title:  "Meiko Particle Pairwise Interactions (24 particles)",
		XLabel: "# processors",
		YLabel: "us",
	}.sweep([]int{1, 2, 3, 4, 6, 8},
		curve{"mpich", func(p int) (float64, error) { return ParticlesMeiko("mpich", p, 24) }},
		curve{"low latency", func(p int) (float64, error) { return ParticlesMeiko("lowlatency", p, 24) }})
}

// ParticlesCluster runs the Figure 9 ring over TCP and reports the slowest
// rank's elapsed microseconds.
func ParticlesCluster(net string, procs, n int) (float64, error) {
	return elapsedUS(registry.Spec{Platform: "cluster", Network: net, Ranks: procs}, func(c *mpi.Comm) error {
		_, err := apps.Particles(c, apps.ParticlesConfig{N: n, Seed: 2, SecPerFlop: apps.SGISecPerFlop})
		return err
	})
}

// Figure9 regenerates "TCP Particle Pairwise Interactions": 128 particles,
// Ethernet vs ATM.
func Figure9(Opts) (Figure, error) {
	return Figure{
		ID:     "Figure 9",
		Title:  "TCP Particle Pairwise Interactions (128 particles)",
		XLabel: "# processors",
		YLabel: "us",
		Notes:  []string{"paper: ATM wins — no contention and larger messages exploit its bandwidth"},
	}.sweep([]int{2, 4, 8},
		curve{"Ethernet", func(p int) (float64, error) { return ParticlesCluster("eth", p, 128) }},
		curve{"ATM", func(p int) (float64, error) { return ParticlesCluster("atm", p, 128) }})
}

// MatMulMeiko regenerates the matrix-multiply result mentioned in §6.1
// ("performance results are similar to that of the linear equation
// solver").
func MatMulMeiko(Opts) (Figure, error) {
	run := func(impl string) func(int) (float64, error) {
		return func(p int) (float64, error) {
			return rootSeconds(impl, p, func(c *mpi.Comm) (time.Duration, error) {
				res, err := apps.MatMul(c, apps.MatMulConfig{N: 96})
				if err != nil {
					return 0, err
				}
				return res.Elapsed, nil
			})
		}
	}
	return Figure{
		ID:     "MatMul (§6.1)",
		Title:  "Meiko Matrix Multiply",
		XLabel: "# processes",
		YLabel: "s",
	}.sweep([]int{1, 2, 4, 8, 16}, curve{"mpich", run("mpich")}, curve{"low latency", run("lowlatency")})
}
