package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/coll"
	"repro/mpi"
	"repro/platform/registry"
)

// The collective-algorithm sweep (cmd/repro -suite collectives): measure every
// registered algorithm of every collective across message sizes on each
// backend, and derive the empirical crossover points — the measured
// counterpart of the selector's thresholds in internal/coll.

// CollectivesReport is the machine-readable record cmd/repro writes as
// BENCH_collectives.json.
type CollectivesReport struct {
	Ranks    int           `json:"ranks"`
	Iters    int           `json:"iters"`
	Backends []CollBackend `json:"backends"`
}

// CollBackend holds one backend's sweep.
type CollBackend struct {
	Backend string   `json:"backend"`
	Ops     []CollOp `json:"ops"`
}

// CollOp holds one collective's per-algorithm series (points are
// [bytes, µs] pairs) and the crossovers derived from them.
type CollOp struct {
	Op         string          `json:"op"`
	Series     []Series        `json:"series"`
	Crossovers []CollCrossover `json:"crossovers,omitempty"`
	Skipped    []string        `json:"skipped,omitempty"`
}

// CollCrossover records that the fastest algorithm changes at Bytes:
// below it From wins, from Bytes upward To does.
type CollCrossover struct {
	Bytes int    `json:"bytes"`
	From  string `json:"from"`
	To    string `json:"to"`
}

// collOps are the swept collectives; barrier has no payload, so it gets a
// single zero-size point.
var collOps = []string{"bcast", "barrier", "allreduce", "allgather", "alltoall"}

func collSizes(op string) []int {
	if op == "barrier" {
		return []int{0}
	}
	return []int{64, 256, 1 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10, 128 << 10, 256 << 10}
}

// collBody runs one collective iters times with an n-byte payload.
func collBody(c *mpi.Comm, op string, n, iters int) error {
	p := c.Size()
	var call func() error
	switch op {
	case "bcast":
		buf := make([]byte, n)
		call = func() error { return c.Bcast(0, buf) }
	case "barrier":
		call = c.Barrier
	case "allreduce":
		// Round to whole 8-byte lanes so the element-splitting algorithms
		// are reachable.
		if n = n - n%8; n == 0 {
			n = 8
		}
		send, recv := make([]byte, n), make([]byte, n)
		call = func() error { return c.AllreduceElem(mpi.SumInt64, 8, send, recv) }
	case "allgather":
		send, recv := make([]byte, n), make([]byte, n*p)
		call = func() error { return c.Allgather(send, recv) }
	case "alltoall":
		send, recv := make([]byte, n*p), make([]byte, n*p)
		call = func() error { return c.Alltoall(send, recv) }
	default:
		return fmt.Errorf("collectives sweep: unknown op %q", op)
	}
	for i := 0; i < iters; i++ {
		if err := call(); err != nil {
			return err
		}
	}
	return nil
}

// collectivesSweep is every registered algorithm of every collective across
// sizes on every registered backend, at 8 ranks. A cell whose algorithm is
// not applicable (hardware broadcast on a cluster) drops out of the record,
// and its algorithm is listed as skipped.
func collectivesSweep(o Opts) sweep[CollectivesReport] {
	return sweep[CollectivesReport]{
		skeleton: func() CollectivesReport {
			rep := CollectivesReport{Ranks: 8, Iters: o.Norm().Iters}
			for _, backend := range registry.Names() {
				cb := CollBackend{Backend: backend}
				for _, op := range collOps {
					co := CollOp{Op: op}
					for _, alg := range coll.Names(op) {
						s := Series{Name: alg}
						for _, n := range collSizes(op) {
							s.Points = append(s.Points, Point{X: n})
						}
						co.Series = append(co.Series, s)
					}
					cb.Ops = append(cb.Ops, co)
				}
				rep.Backends = append(rep.Backends, cb)
			}
			return rep
		},
		points: func(r *CollectivesReport) []point {
			var pts []point
			for _, cb := range r.Backends {
				for _, co := range cb.Ops {
					for _, s := range co.Series {
						for i := range s.Points {
							p := &s.Points[i]
							pts = append(pts, value(key("collectives", cb.Backend, co.Op, s.Name, p.X), &p.Y, func(x *runner) (float64, error) {
								spec := registry.SpecFor(cb.Backend)
								spec.Ranks = r.Ranks
								spec.Coll = co.Op + "=" + s.Name
								rep, err := x.launch(spec, func(c *mpi.Comm) error { return collBody(c, co.Op, p.X, r.Iters) })
								if skippable(err) {
									return math.NaN(), nil
								}
								if err != nil {
									return 0, err
								}
								return float64(rep.MaxRankElapsed) / float64(r.Iters) / 1e3, nil
							}))
						}
					}
				}
			}
			return pts
		},
		finish: func(_ *runner, r *CollectivesReport) error {
			for _, cb := range r.Backends {
				for i := range cb.Ops {
					co := &cb.Ops[i]
					var kept []Series
					for _, s := range co.Series {
						pts := slices.DeleteFunc(s.Points, func(p Point) bool { return math.IsNaN(p.Y) })
						if len(pts) < len(s.Points) {
							co.Skipped = append(co.Skipped, s.Name)
						}
						if s.Points = pts; len(pts) > 0 {
							kept = append(kept, s)
						}
					}
					co.Series, co.Crossovers = kept, deriveCrossovers(kept)
				}
			}
			return nil
		},
	}
}

// skippable reports whether the measurement error means "algorithm not
// applicable here" (hardware broadcast on a cluster, a power-of-two
// algorithm on an odd communicator) rather than a real failure.
func skippable(err error) bool {
	return err != nil && strings.Contains(err.Error(), "not applicable")
}

// deriveCrossovers walks the sizes in order and records every change of
// the fastest algorithm.
func deriveCrossovers(series []Series) []CollCrossover {
	best := map[int]Series{} // per size, the fastest series seen so far
	var xs []int
	for _, s := range series {
		for _, p := range s.Points {
			cur, seen := best[p.X]
			if !seen {
				xs = append(xs, p.X)
			}
			if y, _ := lookup(cur, p.X); !seen || p.Y < y {
				best[p.X] = s
			}
		}
	}
	var out []CollCrossover
	for i := 1; i < len(xs); i++ {
		if from, to := best[xs[i-1]].Name, best[xs[i]].Name; from != to {
			out = append(out, CollCrossover{Bytes: xs[i], From: from, To: to})
		}
	}
	return out
}
