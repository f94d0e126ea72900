package apps

import (
	"math"
	"testing"
	"time"

	"repro/mpi"
	_ "repro/platform/cluster"
	_ "repro/platform/meiko"
	"repro/platform/registry"
)

func TestLinsolveCorrectMeiko(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 7} {
		procs := procs
		var residual float64
		_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: procs, Impl: "lowlatency"}, func(c *mpi.Comm) error {
			res, err := Linsolve(c, LinsolveConfig{N: 48})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				residual = res.Residual
			}
			return nil
		})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if residual > 1e-8 {
			t.Fatalf("procs=%d: residual %g", procs, residual)
		}
	}
}

func TestLinsolveCorrectMPICH(t *testing.T) {
	var residual float64
	_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 4, Impl: "mpich"}, func(c *mpi.Comm) error {
		res, err := Linsolve(c, LinsolveConfig{N: 32})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			residual = res.Residual
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if residual > 1e-8 {
		t.Fatalf("residual %g", residual)
	}
}

func TestLinsolveCorrectCluster(t *testing.T) {
	var residual float64
	_, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 4, Transport: "tcp", Network: "atm"}, func(c *mpi.Comm) error {
		res, err := Linsolve(c, LinsolveConfig{N: 32, SecPerFlop: SGISecPerFlop})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			residual = res.Residual
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if residual > 1e-8 {
		t.Fatalf("residual %g", residual)
	}
}

// Figure 7's claim: the hardware-broadcast implementation beats MPICH's
// point-to-point broadcast, and both speed up with processors.
func TestLinsolveFigure7Shape(t *testing.T) {
	elapsed := func(impl string, procs int) time.Duration {
		var el time.Duration
		_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: procs, Impl: impl}, func(c *mpi.Comm) error {
			res, err := Linsolve(c, LinsolveConfig{N: 64})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				el = res.Elapsed
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return el
	}
	low1 := elapsed("lowlatency", 1)
	low8 := elapsed("lowlatency", 8)
	mpich8 := elapsed("mpich", 8)
	if low8 >= low1 {
		t.Fatalf("no speedup: 1 proc %v, 8 procs %v", low1, low8)
	}
	if low8 >= mpich8 {
		t.Fatalf("hardware bcast (%v) not beating mpich p2p bcast (%v) at 8 procs", low8, mpich8)
	}
}

func TestMatMulCorrect(t *testing.T) {
	var maxErr float64 = -1
	_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 4, Impl: "lowlatency"}, func(c *mpi.Comm) error {
		res, err := MatMul(c, MatMulConfig{N: 24})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			maxErr = res.MaxError
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxErr < 0 || maxErr > 1e-9 {
		t.Fatalf("max error %g", maxErr)
	}
}

func TestParticlesMatchSequential(t *testing.T) {
	const n = 24
	want := SequentialForces(n, 1)
	for _, procs := range []int{1, 2, 4, 8} {
		procs := procs
		got := make([][3]float64, n)
		_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: procs, Impl: "lowlatency"}, func(c *mpi.Comm) error {
			res, err := Particles(c, ParticlesConfig{N: n, Seed: 1})
			if err != nil {
				return err
			}
			per := n / procs
			copy(got[c.Rank()*per:], res.Forces)
			return nil
		})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for i := range want {
			for d := 0; d < 3; d++ {
				if math.Abs(got[i][d]-want[i][d]) > 1e-9*(1+math.Abs(want[i][d])) {
					t.Fatalf("procs=%d particle %d dim %d: %g vs %g", procs, i, d, got[i][d], want[i][d])
				}
			}
		}
	}
}

func TestParticlesClusterBothMedia(t *testing.T) {
	const n = 128
	want := SequentialForces(n, 2)
	elapsed := map[string]time.Duration{}
	for _, net := range []string{"eth", "atm"} {
		got := make([][3]float64, n)
		rep, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 4, Transport: "tcp", Network: net}, func(c *mpi.Comm) error {
			res, err := Particles(c, ParticlesConfig{N: n, Seed: 2, SecPerFlop: SGISecPerFlop})
			if err != nil {
				return err
			}
			per := n / 4
			copy(got[c.Rank()*per:], res.Forces)
			return nil
		})
		if err != nil {
			t.Fatalf("%v: %v", net, err)
		}
		elapsed[net] = rep.MaxRankElapsed
		for i := 0; i < n; i += 17 {
			if math.Abs(got[i][0]-want[i][0]) > 1e-9*(1+math.Abs(want[i][0])) {
				t.Fatalf("%v: particle %d force mismatch", net, i)
			}
		}
	}
	// Figure 9: ATM wins on the cluster.
	if elapsed["atm"] >= elapsed["eth"] {
		t.Fatalf("atm %v not faster than ethernet %v", elapsed["atm"], elapsed["eth"])
	}
}

// Figure 8's setting: low latency matters because the ring processes
// interact in lock-step; the low-latency implementation beats MPICH.
func TestParticlesFigure8Shape(t *testing.T) {
	elapsed := func(impl string) time.Duration {
		rep, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 8, Impl: impl}, func(c *mpi.Comm) error {
			_, err := Particles(c, ParticlesConfig{N: 24, Seed: 1})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxRankElapsed
	}
	low, mpich := elapsed("lowlatency"), elapsed("mpich")
	if low >= mpich {
		t.Fatalf("low latency %v not beating mpich %v on the fine-grained ring", low, mpich)
	}
}

func TestParticlesBadDivision(t *testing.T) {
	_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 5, Impl: "lowlatency"}, func(c *mpi.Comm) error {
		_, err := Particles(c, ParticlesConfig{N: 24, Seed: 1})
		return err
	})
	if err == nil {
		t.Fatal("24 particles on 5 ranks should error")
	}
}
