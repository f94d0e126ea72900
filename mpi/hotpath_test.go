package mpi

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// sendrecvMallocs builds a fresh 2-rank mem world on the given kernel, runs
// legs Sendrecv exchanges of n bytes with a fresh tag each (halo's tag =
// step), and reports the heap objects the whole job allocated.
func sendrecvMallocs(t *testing.T, lanes, n, legs int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Launch(memWorldLanes(2, lanes), func(c *Comm) error {
		out, in := make([]byte, n), make([]byte, n)
		peer := 1 - c.Rank()
		for tag := 0; tag < legs; tag++ {
			if _, err := c.Sendrecv(peer, tag, out, peer, tag, in); err != nil {
				return err
			}
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	if err == nil {
		err = rep.FirstErr()
	}
	if err != nil {
		t.Fatalf("lanes=%d bytes=%d legs=%d: %v", lanes, n, legs, err)
	}
	return after.Mallocs - before.Mallocs
}

// TestSendrecvAllocsPerLeg holds the per-message host path on the
// store-based fabric to nothing, whether or not the peers sit on different
// lanes: the two engine requests of a Sendrecv leg (recycled once waited),
// matcher bins, fabric deliveries (eager, or RTS + CTS + data above the
// 180-byte crossover), the rendezvous receive name and the payload's bounce
// buffer (drawn from the sender's pool on its lane, returned to the
// receiver's on the other) must add nothing per leg. Short and long runs
// are subtracted so world construction and warm-up cancel.
func TestSendrecvAllocsPerLeg(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// On one P, as testing.AllocsPerRun measures: the runtime's own work
	// (a timer re-armed, a new M for an idle P) then cannot allocate inside
	// the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const short, long = 200, 2200
	for _, k := range []struct {
		name  string
		lanes int
	}{{"single", 0}, {"2-lane", 2}} {
		for _, n := range []int{64, 1024} {
			t.Run(fmt.Sprintf("%s/%dB", k.name, n), func(t *testing.T) {
				extra := int64(sendrecvMallocs(t, k.lanes, n, long)) - int64(sendrecvMallocs(t, k.lanes, n, short))
				calls := int64(2 * (long - short)) // both ranks
				if extra > 64 {
					t.Errorf("%d more Sendrecv calls allocated %d more objects (%.2f per call), want a constant",
						calls, extra, float64(extra)/float64(calls))
				}
			})
		}
	}
}

// collRow is one collective call shape: setup builds a rank's buffers for
// an n-byte payload once and returns call i.
//
// A bounce buffer goes from the sender's pool to the receiver's
// (Engine.Bounce), so a rank that sends more than it receives in some size
// class draws fresh ones on every call: a reduce leaf, the head of a scan
// chain. A row whose traffic is lopsided therefore rotates its root, turns
// its chain around every other call, or follows the call with its mirror
// image, so that over a few calls every rank receives what it sends in
// every size class.
type collRow struct {
	name  string
	tune  Tuning
	setup func(c *Comm, n int) func(i int) error
}

// collRows covers every collective that borrows scratch or once built
// per-call counts, under each allreduce algorithm, plus the typed wrappers.
func collRows() []collRow {
	// The typed rows and the rooted reductions fold SumInt64 and SumFloat64;
	// the rest fold nothing, which keeps the rows quick under -race, and
	// declare 1-byte elements, which lets rsag split an 8-byte vector.
	noop := func(dst, src []byte) {}
	allreduce := func(c *Comm, n int) func(int) error {
		send, recv := make([]byte, n), make([]byte, n)
		return func(int) error { return c.AllreduceElem(noop, 1, send, recv) }
	}
	rows := []collRow{{name: "allreduce/auto", setup: allreduce}}
	for _, alg := range []string{"reduce-bcast", "rdbl", "rsag"} {
		rows = append(rows, collRow{"allreduce/" + alg, Tuning{"allreduce": alg}, allreduce})
	}
	barrier := func(c *Comm, n int) func(int) error { return func(int) error { return c.Barrier() } }
	// chain alternates c with its reversed copy, so the chain runs both ways.
	chain := func(op func(c *Comm, send, recv []byte) error) func(c *Comm, n int) func(int) error {
		return func(c *Comm, n int) func(int) error {
			rev, err := c.Split(0, -c.Rank())
			if err != nil {
				panic(err) // a healthy mem world cannot fail a Split
			}
			comms := [2]*Comm{c, rev}
			send, recv := make([]byte, n), make([]byte, n)
			return func(i int) error { return op(comms[i%2], send, recv) }
		}
	}
	return append(rows,
		collRow{"reduce", nil, func(c *Comm, n int) func(int) error {
			send, recv := make([]byte, n), make([]byte, n)
			return func(i int) error { return c.Reduce(i%c.Size(), SumInt64, send, recv) }
		}},
		collRow{"scan", nil, chain(func(c *Comm, send, recv []byte) error { return c.Scan(SumInt64, send, recv) })},
		collRow{"exscan", nil, chain(func(c *Comm, send, recv []byte) error { return c.Exscan(SumInt64, send, recv) })},
		collRow{"reducescatter", nil, func(c *Comm, n int) func(int) error {
			p := c.Size()
			send, recv, counts := make([]byte, n), make([]byte, n/p), make([]int, p)
			for i := range counts {
				counts[i] = n / p
			}
			all := make([]byte, n)
			return func(int) error {
				if err := c.ReduceScatter(SumInt64, send, recv, counts); err != nil {
					return err
				}
				// The mirror of a binomial reduce to 0 and a linear scatter from 0.
				if err := c.Bcast(0, all); err != nil {
					return err
				}
				return c.Gather(0, recv, all)
			}
		}},
		collRow{"barrier/dissemination", Tuning{"barrier": "dissemination"}, barrier},
		collRow{"barrier/tree", Tuning{"barrier": "tree"}, barrier},
		collRow{"gather", nil, func(c *Comm, n int) func(int) error {
			part, all := make([]byte, n), make([]byte, n*c.Size())
			return func(int) error {
				if err := c.Gather(0, part, all); err != nil {
					return err
				}
				return c.Scatter(0, all, part) // the mirror
			}
		}},
		collRow{"scatter", nil, func(c *Comm, n int) func(int) error {
			part, all := make([]byte, n), make([]byte, n*c.Size())
			return func(int) error {
				if err := c.Scatter(0, all, part); err != nil {
					return err
				}
				return c.Gather(0, part, all) // the mirror
			}
		}},
		collRow{"allgather/gather-bcast", Tuning{"allgather": "gather-bcast", "bcast": "binomial"}, func(c *Comm, n int) func(int) error {
			send, recv := make([]byte, n), make([]byte, n*c.Size())
			return func(int) error {
				if err := c.Allgather(send, recv); err != nil {
					return err
				}
				// The mirror of a linear gather to 0 and a binomial bcast from 0.
				if err := c.Scatter(0, recv, send); err != nil {
					return err
				}
				return c.Reduce(0, noop, recv, recv)
			}
		}},
		collRow{"allgather/ring", Tuning{"allgather": "ring"}, func(c *Comm, n int) func(int) error {
			send, recv := make([]byte, n), make([]byte, n*c.Size())
			return func(int) error { return c.Allgather(send, recv) }
		}},
		collRow{"AllreduceFloat64", nil, func(c *Comm, n int) func(int) error {
			send, recv := make([]float64, n/8), make([]float64, n/8)
			return func(int) error { return c.AllreduceFloat64(SumFloat64, send, recv) }
		}},
		collRow{"AllreduceInt64", nil, func(c *Comm, n int) func(int) error {
			send, recv := make([]int64, n/8), make([]int64, n/8)
			return func(int) error { return c.AllreduceInt64(SumInt64, send, recv) }
		}},
		collRow{"ReduceFloat64", nil, func(c *Comm, n int) func(int) error {
			send, recv := make([]float64, n/8), make([]float64, n/8)
			return func(i int) error { return c.ReduceFloat64(i%c.Size(), SumFloat64, send, recv) }
		}},
	)
}

// collMallocs builds a fresh 8-rank mem world on the given kernel, has
// every rank make row's call calls times at n bytes, and reports the heap
// objects the whole job allocated.
func collMallocs(t *testing.T, row collRow, lanes, n, calls int) uint64 {
	t.Helper()
	w := memWorldLanes(8, lanes)
	w.Tune = row.tune
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Launch(w, func(c *Comm) error {
		call := row.setup(c, n)
		for i := 0; i < calls; i++ {
			if err := call(i); err != nil {
				return err
			}
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	if err == nil {
		err = rep.FirstErr()
	}
	if err != nil {
		t.Fatalf("%s lanes=%d bytes=%d calls=%d: %v", row.name, lanes, n, calls, err)
	}
	return after.Mallocs - before.Mallocs
}

// TestCollectiveAllocsPerCall holds every collective's host path on the
// store-based fabric to a constant: the typed wrappers reduce in place,
// the built-in ops fold native views, the algorithms borrow their scratch
// from the process's LIFO and the uniform gather family builds no count
// slice, so a call allocates nothing once warm. Short and long runs are
// subtracted so world construction and warm-up cancel, as in
// TestSendrecvAllocsPerLeg.
func TestCollectiveAllocsPerCall(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// On one P, as testing.AllocsPerRun measures: the runtime's own work
	// (a timer re-armed, a new M for an idle P) then cannot allocate inside
	// the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const short, long = 64, 128 // past the matcher's warm-up; whole rotations of the root
	for _, k := range []struct {
		name  string
		lanes int
	}{{"single", 0}, {"2-lane", 2}} {
		for _, row := range collRows() {
			for _, n := range []int{8, 1 << 10, 16 << 10} {
				t.Run(fmt.Sprintf("%s/%s/%dB", k.name, row.name, n), func(t *testing.T) {
					extra := int64(collMallocs(t, row, k.lanes, n, long)) - int64(collMallocs(t, row, k.lanes, n, short))
					calls := int64(8 * (long - short)) // every rank
					if extra > 64 {
						t.Errorf("%d more calls allocated %d more objects (%.2f per call), want a constant",
							calls, extra, float64(extra)/float64(calls))
					}
				})
			}
		}
	}
}

// shiftOracle is Shift as the composition it replaced: copy the
// coordinates, displace one, fold through RankOf.
func shiftOracle(t *Cart, dim, disp int) (src, dst int) {
	up, down := t.Coords(t.rank), t.Coords(t.rank)
	up[dim] += disp
	down[dim] -= disp
	return t.RankOf(down), t.RankOf(up)
}

// TestCartShiftStrideArithmetic checks Shift against the Coords/RankOf
// composition for every rank, dimension and displacement on grids that
// cover each wrap case, and that it allocates nothing.
func TestCartShiftStrideArithmetic(t *testing.T) {
	grids := []struct {
		name     string
		dims     []int
		periodic []bool
	}{
		{"periodic", []int{4, 3}, []bool{true, true}},
		{"non-periodic", []int{4, 3}, []bool{false, false}},
		{"mixed", []int{3, 4}, []bool{true, false}},
		{"1-wide", []int{1, 5}, []bool{true, false}},
		{"3-D", []int{2, 3, 2}, []bool{false, true, true}},
	}
	for _, g := range grids {
		t.Run(g.name, func(t *testing.T) {
			n := 1
			for _, d := range g.dims {
				n *= d
			}
			launch(t, n, func(c *Comm) error {
				cart, err := c.CartCreate(g.dims, g.periodic)
				if err != nil {
					return err
				}
				for dim := range g.dims {
					for disp := -3; disp <= 3; disp++ {
						src, dst := cart.Shift(dim, disp)
						if wsrc, wdst := shiftOracle(cart, dim, disp); src != wsrc || dst != wdst {
							t.Errorf("rank %d Shift(%d, %d) = (%d, %d), Coords/RankOf give (%d, %d)", c.Rank(), dim, disp, src, dst, wsrc, wdst)
						}
					}
				}
				if allocs := testing.AllocsPerRun(100, func() { cart.Shift(len(g.dims)-1, 1) }); allocs != 0 {
					t.Errorf("Shift allocates %.0f objects, want 0", allocs)
				}
				return nil
			})
		})
	}
}

// TestCommRankShortcut checks the identity shortcut against the scan it
// skips, on groups where it always applies (a world), applies only where
// the permutation has a fixed point (a reversed Split of odd size) and
// mostly does not (a sub-communicator), for members and non-members.
func TestCommRankShortcut(t *testing.T) {
	scan := func(c *Comm, world int) int {
		for i, wr := range c.group {
			if wr == world {
				return i
			}
		}
		return -1
	}
	check := func(what string, c *Comm) {
		for world := -1; world <= c.w.Size(); world++ {
			if got, want := c.commRank(world), scan(c, world); got != want {
				t.Errorf("%s %v: commRank(%d) = %d, want %d", what, c.group, world, got, want)
			}
		}
	}
	launch(t, 5, func(c *Comm) error {
		check("world", c)
		rev, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		check("reversed split", rev)
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		check("sub-communicator", sub)
		return nil
	})
}
