// Stencil runs a 2-D Jacobi heat-diffusion iteration on a Cartesian
// process grid with halo exchange — the canonical MPI domain decomposition,
// exercising the Cart topology, Sendrecv halos, and an Allreduce
// convergence test.
//
//	go run ./examples/stencil [-n 96] [-iters 40]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/mpi"
	_ "repro/platform/meiko"
	"repro/platform/registry"
)

func main() {
	n := flag.Int("n", 96, "global grid edge (cells)")
	iters := flag.Int("iters", 40, "Jacobi iterations")
	ranks := flag.Int("ranks", 6, "processes")
	flag.Parse()

	rep, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: *ranks}, func(c *mpi.Comm) error {
		py, px := mpi.Dims2(c.Size())
		cart, err := c.CartCreate([]int{py, px}, []bool{false, false})
		if err != nil {
			return err
		}
		if cart == nil {
			return nil // surplus rank
		}
		coords := cart.Coords(c.Rank())
		rows := *n / py
		cols := *n / px

		// Local grid with a one-cell halo; boundary condition: hot top edge.
		w := cols + 2
		h := rows + 2
		grid := make([]float64, w*h)
		next := make([]float64, w*h)
		if coords[0] == 0 {
			for x := 0; x < w; x++ {
				grid[x] = 100
				next[x] = 100
			}
		}

		up, down := cart.Shift(0, 1)    // (src, dst) moving down rows
		left, right := cart.Shift(1, 1) // moving right in columns

		rowBuf := func(y int) []float64 { return grid[y*w+1 : y*w+1+cols] }
		var maxDelta float64
		for it := 0; it < *iters; it++ {
			// Halo exchange: rows up/down, columns left/right.
			if down >= 0 || up >= 0 {
				// Send my bottom row down, receive my top halo from above.
				out := mpi.Float64Bytes(rowBuf(rows))
				in := make([]byte, 8*cols)
				if down >= 0 && up >= 0 {
					if _, err := c.Sendrecv(down, 1, out, up, 1, in); err != nil {
						return err
					}
					copy(grid[0*w+1:], mpi.BytesFloat64(in))
				} else if down >= 0 {
					if err := c.Send(down, 1, out); err != nil {
						return err
					}
				} else {
					if _, err := c.Recv(up, 1, in); err != nil {
						return err
					}
					copy(grid[0*w+1:], mpi.BytesFloat64(in))
				}
				// And the reverse direction.
				out = mpi.Float64Bytes(rowBuf(1))
				in = make([]byte, 8*cols)
				if up >= 0 && down >= 0 {
					if _, err := c.Sendrecv(up, 2, out, down, 2, in); err != nil {
						return err
					}
					copy(grid[(h-1)*w+1:], mpi.BytesFloat64(in))
				} else if up >= 0 {
					if err := c.Send(up, 2, out); err != nil {
						return err
					}
				} else if down >= 0 {
					if _, err := c.Recv(down, 2, in); err != nil {
						return err
					}
					copy(grid[(h-1)*w+1:], mpi.BytesFloat64(in))
				}
			}
			// Column halos via a strided datatype, both directions.
			colType := mpi.Vector{Count: rows, BlockLen: 1, Stride: w, Of: mpi.Float64}
			recvCol := func(src, tag, haloX int) error {
				dst := make([]byte, 8*w*h)
				if _, err := c.RecvTyped(src, tag, colType, 1, dst); err != nil {
					return err
				}
				dec := mpi.BytesFloat64(dst)
				for y := 0; y < rows; y++ {
					grid[(y+1)*w+haloX] = dec[y*w]
				}
				return nil
			}
			if right >= 0 { // my rightmost column -> right neighbor's left halo
				if err := c.SendTyped(right, 3, colType, 1, mpi.Float64Bytes(grid[1*w+cols:])); err != nil {
					return err
				}
			}
			if left >= 0 {
				if err := recvCol(left, 3, 0); err != nil {
					return err
				}
				// And my leftmost column -> left neighbor's right halo.
				if err := c.SendTyped(left, 4, colType, 1, mpi.Float64Bytes(grid[1*w+1:])); err != nil {
					return err
				}
			}
			if right >= 0 {
				if err := recvCol(right, 4, cols+1); err != nil {
					return err
				}
			}

			// Jacobi sweep (real arithmetic, modeled flops).
			maxDelta = 0
			for y := 1; y <= rows; y++ {
				for x := 1; x <= cols; x++ {
					v := 0.25 * (grid[(y-1)*w+x] + grid[(y+1)*w+x] + grid[y*w+x-1] + grid[y*w+x+1])
					if d := v - grid[y*w+x]; d > maxDelta {
						maxDelta = d
					} else if -d > maxDelta {
						maxDelta = -d
					}
					next[y*w+x] = v
				}
			}
			grid, next = next, grid
			c.Compute(time.Duration(rows*cols) * 6 * 100 * time.Nanosecond)

			// Global convergence check.
			global, err := c.AllreduceFloat64(mpi.MaxFloat64, []float64{maxDelta})
			if err != nil {
				return err
			}
			if c.Rank() == 0 && (it+1)%10 == 0 {
				fmt.Printf("  iter %3d: max delta %.4f, t=%v\n", it+1, global[0], c.Wtime())
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in virtual %v\n", rep.MaxRankElapsed)
}
