package bench

import (
	"fmt"
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
	switch op {
	case "bcast":
		buf := make([]byte, n)
		for i := 0; i < iters; i++ {
			if err := c.Bcast(0, buf); err != nil {
				return err
			}
		}
	case "barrier":
		for i := 0; i < iters; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
	case "allreduce":
		// Round to whole 8-byte lanes so the element-splitting algorithms
		// are reachable.
		if n = n - n%8; n == 0 {
			n = 8
		}
		send := make([]byte, n)
		recv := make([]byte, n)
		for i := 0; i < iters; i++ {
			if err := c.AllreduceElem(mpi.SumInt64, 8, send, recv); err != nil {
				return err
			}
		}
	case "allgather":
		send := make([]byte, n)
		recv := make([]byte, n*p)
		for i := 0; i < iters; i++ {
			if err := c.Allgather(send, recv); err != nil {
				return err
			}
		}
	case "alltoall":
		send := make([]byte, n*p)
		recv := make([]byte, n*p)
		for i := 0; i < iters; i++ {
			if err := c.Alltoall(send, recv); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("collectives sweep: unknown op %q", op)
	}
	return nil
}

// measureColl times one (backend, op, algorithm, size) cell in µs per call.
func measureColl(backend, op, alg string, ranks, n, iters int) (float64, error) {
	spec := registry.SpecFor(backend)
	spec.Ranks = ranks
	spec.Coll = op + "=" + alg
	rep, err := registry.Run(spec, func(c *mpi.Comm) error { return collBody(c, op, n, iters) })
	if err != nil {
		return 0, err
	}
	return float64(rep.MaxRankElapsed) / float64(iters) / 1e3, nil
}

// skippable reports whether the measurement error means "algorithm not
// applicable here" (hardware broadcast on a cluster, a power-of-two
// algorithm on an odd communicator) rather than a real failure.
func skippable(err error) bool {
	return err != nil && strings.Contains(err.Error(), "not applicable")
}

// Collectives sweeps every registered algorithm of every collective across
// sizes on every registered backend.
func Collectives(o Opts) (CollectivesReport, error) {
	o = o.Norm()
	const ranks = 8
	rep := CollectivesReport{Ranks: ranks, Iters: o.Iters}
	for _, backend := range registry.Names() {
		cb := CollBackend{Backend: backend}
		for _, op := range collOps {
			co := CollOp{Op: op}
			for _, alg := range coll.Names(op) {
				s := Series{Name: alg}
				skipped := false
				for _, n := range collSizes(op) {
					us, err := measureColl(backend, op, alg, ranks, n, o.Iters)
					if skippable(err) {
						skipped = true
						continue
					}
					if err != nil {
						return rep, fmt.Errorf("%s %s/%s n=%d: %w", backend, op, alg, n, err)
					}
					s.Points = append(s.Points, Point{n, us})
				}
				if len(s.Points) > 0 {
					co.Series = append(co.Series, s)
				}
				if skipped {
					co.Skipped = append(co.Skipped, alg)
				}
			}
			co.Crossovers = deriveCrossovers(co.Series)
			cb.Ops = append(cb.Ops, co)
		}
		rep.Backends = append(rep.Backends, cb)
	}
	return rep, nil
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

// FormatCollectives renders the sweep as the familiar aligned text tables,
// one figure per (backend, op), with the derived crossovers as notes.
func FormatCollectives(r CollectivesReport) string {
	var b strings.Builder
	for _, cb := range r.Backends {
		for _, co := range cb.Ops {
			f := Figure{
				ID:     "collectives " + cb.Backend,
				Title:  fmt.Sprintf("%s across algorithms (%d ranks)", co.Op, r.Ranks),
				XLabel: "bytes",
				YLabel: "us/call",
				Series: co.Series,
			}
			for _, x := range co.Crossovers {
				f.Notes = append(f.Notes, fmt.Sprintf("crossover at %d bytes: %s -> %s", x.Bytes, x.From, x.To))
			}
			if len(co.Skipped) > 0 {
				f.Notes = append(f.Notes, "not applicable here: "+strings.Join(co.Skipped, ", "))
			}
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
	}
	return strings.TrimRight(b.String(), "\n") + "\n"
}
