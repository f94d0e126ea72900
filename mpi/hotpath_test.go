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
