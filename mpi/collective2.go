package mpi

import (
	"time"

	"repro/internal/coll"
	"repro/internal/core"
)

// Extended collectives beyond the paper's Bcast: the vector variants and
// the derived reductions of MPI-1, all routed through the algorithm layer.

// Allgatherv gathers variable-sized contributions everywhere; counts[i] is
// rank i's byte count and recvBuf holds their sum, ordered by rank.
func (c *Comm) Allgatherv(send []byte, recvBuf []byte, counts []int) error {
	if err := checkCounts("Allgatherv", c.Size(), counts); err != nil {
		return err
	}
	if need := sum(counts); len(recvBuf) < need {
		return core.Errorf(core.ErrTruncate, "Allgatherv: %d-byte receive buffer truncates %d gathered bytes", len(recvBuf), need)
	}
	return c.runColl("allgatherv", len(send), coll.Args{Send: send, Recv: recvBuf, Counts: counts})
}

// Alltoallv exchanges variable-sized slices: rank r sends
// send[sdispls[i]:sdispls[i]+scounts[i]] to rank i and receives rank i's
// slice for r at recv[rdispls[i]:rdispls[i]+rcounts[i]].
func (c *Comm) Alltoallv(send []byte, scounts, sdispls []int, recv []byte, rcounts, rdispls []int) error {
	p := c.Size()
	for _, v := range []struct {
		name    string
		counts  []int
		displs  []int
		buf     []byte
		bufName string
	}{
		{"send", scounts, sdispls, send, "send"},
		{"receive", rcounts, rdispls, recv, "receive"},
	} {
		if err := checkCounts("Alltoallv", p, v.counts); err != nil {
			return err
		}
		if len(v.displs) != p {
			return core.Errorf(core.ErrInternal, "Alltoallv: %d %s displacements for communicator of size %d", len(v.displs), v.name, p)
		}
		for i := 0; i < p; i++ {
			if v.displs[i] < 0 || v.displs[i]+v.counts[i] > len(v.buf) {
				return core.Errorf(core.ErrTruncate, "Alltoallv: rank %d's slice [%d:%d] outside %d-byte %s buffer",
					i, v.displs[i], v.displs[i]+v.counts[i], len(v.buf), v.bufName)
			}
		}
	}
	return c.runColl("alltoallv", sum(scounts), coll.Args{
		Send: send, SCounts: scounts, SDispls: sdispls,
		Recv: recv, RCounts: rcounts, RDispls: rdispls,
	})
}

// ReduceScatter reduces send elementwise across ranks and scatters the
// result: rank r receives the slice of counts[r] bytes at offset
// sum(counts[:r]) (MPI_Reduce_scatter, implemented as reduce + scatterv).
func (c *Comm) ReduceScatter(op Op, send []byte, recv []byte, counts []int) error {
	if err := checkCounts("ReduceScatter", c.Size(), counts); err != nil {
		return err
	}
	if need := sum(counts); need > len(send) {
		return core.Errorf(core.ErrTruncate, "ReduceScatter: counts total %d bytes but send buffer has %d", need, len(send))
	}
	if len(recv) < counts[c.rank] {
		return core.Errorf(core.ErrTruncate, "ReduceScatter: %d-byte receive buffer truncates rank %d's %d bytes", len(recv), c.rank, counts[c.rank])
	}
	return c.runColl("reducescatter", len(send), coll.Args{Op: op, Send: send, Recv: recv, Counts: counts})
}

// Exscan computes the exclusive prefix reduction: rank r receives the
// combination of ranks 0..r-1; rank 0's recv is left untouched
// (MPI_Exscan).
func (c *Comm) Exscan(op Op, send []byte, recv []byte) error {
	if c.rank > 0 && len(recv) < len(send) {
		return core.Errorf(core.ErrTruncate, "Exscan: %d-byte receive buffer truncates %d-byte reduction", len(recv), len(send))
	}
	return c.runColl("exscan", len(send), coll.Args{Op: op, Send: send, Recv: recv})
}

// Wtick reports the virtual clock resolution, like MPI_Wtick.
func Wtick() time.Duration { return time.Nanosecond }

// Abort terminates the job abnormally from one rank by surfacing an error
// the runner reports (MPI_Abort's moral equivalent under simulation: there
// is no process to kill, so the error carries the code).
func (c *Comm) Abort(code int) error {
	return core.Errorf(core.ErrInternal, "MPI_Abort called on rank %d with code %d", c.rank, code)
}
