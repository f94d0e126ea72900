package mpi

import (
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Collectives route through the algorithm layer (internal/coll): each call
// resolves to a registered algorithm — forced by World.Tune (a Spec's Coll),
// or auto-selected by message size, communicator size, and platform
// capability — and the layer books per-algorithm rounds/bytes
// into the rank's cost account and trace timeline.

// collComm adapts a communicator to the algorithm layer's narrow
// interface: rank-addressed point-to-point traffic on the communicator's
// collective context (ctx+1), keeping collectives isolated from user tags.
type collComm struct{ c *Comm }

func (k collComm) Rank() int { return k.c.rank }
func (k collComm) Size() int { return len(k.c.group) }

func (k collComm) Send(dst, tag int, data []byte) error {
	r, err := k.Isend(dst, tag, data)
	if err != nil {
		return err
	}
	return k.Wait(r)
}

func (k collComm) Recv(src, tag int, buf []byte) error {
	wr, err := k.c.worldRank(src)
	if err != nil {
		return err
	}
	_, err = k.c.ep.Recv(k.c.p, wr, tag, k.c.ctx+1, buf)
	return err
}

func (k collComm) Sendrecv(to int, out []byte, from int, in []byte, tag int) error {
	wf, err := k.c.worldRank(from)
	if err != nil {
		return err
	}
	wt, err := k.c.worldRank(to)
	if err != nil {
		return err
	}
	_, err = k.c.ep.Sendrecv(k.c.p, wt, tag, out, wf, tag, k.c.ctx+1, in)
	return err
}

func (k collComm) Isend(dst, tag int, data []byte) (coll.Req, error) {
	wr, err := k.c.worldRank(dst)
	if err != nil {
		return nil, err
	}
	return k.c.ep.Isend(k.c.p, wr, tag, k.c.ctx+1, core.ModeStandard, data)
}

func (k collComm) Wait(r coll.Req) error {
	_, err := k.c.ep.Wait(k.c.p, r.(*core.Request))
	return err
}

func (k collComm) HasHW() bool { return k.c.w.hw != nil && k.c.isWorld() }

func (k collComm) HWBcast(root int, buf []byte) error {
	if k.c.w.hw == nil {
		return core.Errorf(core.ErrInternal, "hardware broadcast on a device without one")
	}
	if !k.c.isWorld() {
		return core.Errorf(core.ErrInternal, "hardware broadcast requires the world communicator")
	}
	wr, err := k.c.worldRank(root)
	if err != nil {
		return err
	}
	return k.c.w.hw[k.c.ep.Rank()].HWBcast(k.c.p, wr, k.c.ctx+1, buf)
}

// Borrow and Return lend the process's scratch, one LIFO per world rank
// that every communicator of the rank shares.
func (k collComm) Borrow(n int) []byte { return k.scratch().Borrow(n) }
func (k collComm) Return(b []byte)     { k.scratch().Return(b) }
func (k collComm) scratch() *coll.Scratch {
	return &k.c.w.scratch[k.c.group[k.c.rank]]
}

func (k collComm) Acct() *core.Acct { return k.c.ep.Acct() }

func (k collComm) TraceLog() *trace.Log { return k.c.ep.TraceLog() }

func (k collComm) WorldRank() int { return k.c.ep.Rank() }
func (k collComm) Now() sim.Time  { return k.c.p.Now() }

// runColl dispatches one collective call through the algorithm layer
// under this communicator's tuning.
func (c *Comm) runColl(op string, bytes int, a coll.Args) error {
	return coll.Run(collComm{c}, c.tune, op, bytes, a)
}

// isWorld reports whether the communicator spans the full world in rank
// order (hardware broadcast reaches exactly that set).
func (c *Comm) isWorld() bool {
	if len(c.group) != c.ep.Size() {
		return false
	}
	for i, wr := range c.group {
		if wr != i {
			return false
		}
	}
	return true
}

// ---- argument validation ---------------------------------------------
//
// The checks below turn malformed buffers into proper MPI errors
// (truncation-style) instead of out-of-range panics inside an algorithm.

// checkCounts validates a per-rank count slice.
func checkCounts(op string, p int, counts []int) error {
	if len(counts) != p {
		return core.Errorf(core.ErrInternal, "%s: %d counts for communicator of size %d", op, len(counts), p)
	}
	for i, n := range counts {
		if n < 0 {
			return core.Errorf(core.ErrInternal, "%s: negative count %d for rank %d", op, n, i)
		}
	}
	return nil
}

func sum(counts []int) int {
	t := 0
	for _, n := range counts {
		t += n
	}
	return t
}

// Bcast broadcasts buf from root to every rank of the communicator
// (MPI_Bcast); buf is input at the root and output elsewhere.
func (c *Comm) Bcast(root int, buf []byte) error {
	return c.runColl("bcast", len(buf), coll.Args{Root: root, Buf: buf})
}

// Barrier blocks until every rank of the communicator has entered it
// (MPI_Barrier).
func (c *Comm) Barrier() error {
	return c.runColl("barrier", 0, coll.Args{})
}

// Gather collects each rank's n-byte contribution at the root, which
// receives Size()*n bytes ordered by rank (MPI_Gather). recvBuf is only
// used at the root.
func (c *Comm) Gather(root int, send []byte, recvBuf []byte) error {
	if need := c.Size() * len(send); c.rank == root && len(recvBuf) < need {
		return core.Errorf(core.ErrTruncate, "Gather: %d-byte receive buffer truncates %d gathered bytes", len(recvBuf), need)
	}
	return c.runColl("gather", len(send), coll.Args{Root: root, Send: send, Recv: recvBuf})
}

// Gatherv is Gather with per-rank counts; recvBuf must hold their sum.
func (c *Comm) Gatherv(root int, send []byte, recvBuf []byte, counts []int) error {
	if err := checkCounts("Gatherv", c.Size(), counts); err != nil {
		return err
	}
	if need := sum(counts); c.rank == root && len(recvBuf) < need {
		return core.Errorf(core.ErrTruncate, "Gatherv: %d-byte receive buffer truncates %d gathered bytes", len(recvBuf), need)
	}
	return c.runColl("gatherv", len(send), coll.Args{Root: root, Send: send, Recv: recvBuf, Counts: counts})
}

// Scatter distributes Size() slices of n bytes from the root's sendBuf,
// one per rank (MPI_Scatter); recv receives this rank's slice.
func (c *Comm) Scatter(root int, sendBuf []byte, recv []byte) error {
	if need := c.Size() * len(recv); c.rank == root && len(sendBuf) < need {
		return core.Errorf(core.ErrTruncate, "Scatter: %d-byte send buffer short of %d scattered bytes", len(sendBuf), need)
	}
	return c.runColl("scatter", len(recv), coll.Args{Root: root, Send: sendBuf, Recv: recv})
}

// Scatterv is Scatter with per-rank counts.
func (c *Comm) Scatterv(root int, sendBuf []byte, counts []int, recv []byte) error {
	if c.rank == root {
		if err := checkCounts("Scatterv", c.Size(), counts); err != nil {
			return err
		}
		if need := sum(counts); len(sendBuf) < need {
			return core.Errorf(core.ErrTruncate, "Scatterv: %d-byte send buffer short of %d scattered bytes", len(sendBuf), need)
		}
		if len(recv) < counts[c.rank] {
			return core.Errorf(core.ErrTruncate, "Scatterv: %d-byte receive buffer truncates rank %d's %d bytes", len(recv), c.rank, counts[c.rank])
		}
	}
	return c.runColl("scatterv", len(recv), coll.Args{Root: root, Send: sendBuf, Counts: counts, Recv: recv})
}

// Allgather gathers every rank's n bytes at every rank (MPI_Allgather).
func (c *Comm) Allgather(send []byte, recvBuf []byte) error {
	if need := c.Size() * len(send); len(recvBuf) < need {
		return core.Errorf(core.ErrTruncate, "Allgather: %d-byte receive buffer truncates %d gathered bytes", len(recvBuf), need)
	}
	return c.runColl("allgather", len(send), coll.Args{Send: send, Recv: recvBuf})
}

// Op combines src into dst elementwise over packed representations
// (MPI_Op). Both slices have equal length.
type Op func(dst, src []byte)

// Reduce combines each rank's send buffer with op, leaving the result in
// recv at the root (MPI_Reduce). Algorithms preserve rank order, so
// non-commutative (associative) operators reduce deterministically.
func (c *Comm) Reduce(root int, op Op, send []byte, recv []byte) error {
	if c.rank == root && len(recv) < len(send) {
		return core.Errorf(core.ErrTruncate, "Reduce: %d-byte receive buffer truncates %d-byte reduction", len(recv), len(send))
	}
	return c.runColl("reduce", len(send), coll.Args{Root: root, Op: op, Send: send, Recv: recv})
}

// Allreduce reduces every rank's send buffer and delivers the result
// everywhere (MPI_Allreduce). The element size is unknown for an opaque
// byte operator, so vector-splitting algorithms are ruled out; use
// AllreduceElem (or the typed wrappers) to enable them.
func (c *Comm) Allreduce(op Op, send []byte, recv []byte) error {
	return c.AllreduceElem(op, 0, send, recv)
}

// AllreduceElem is Allreduce with a declared element size in bytes:
// algorithms that partition the vector (reduce-scatter+allgather) split
// only at elem-byte boundaries. elem 0 means the buffer is opaque.
func (c *Comm) AllreduceElem(op Op, elem int, send []byte, recv []byte) error {
	if len(recv) < len(send) {
		return core.Errorf(core.ErrTruncate, "Allreduce: %d-byte receive buffer truncates %d-byte reduction", len(recv), len(send))
	}
	if elem > 0 && len(send)%elem != 0 {
		return core.Errorf(core.ErrInternal, "Allreduce: %d-byte buffer not a multiple of %d-byte elements", len(send), elem)
	}
	return c.runColl("allreduce", len(send), coll.Args{Op: op, Elem: elem, Send: send, Recv: recv})
}

// Scan computes the inclusive prefix reduction: rank r receives the
// combination of ranks 0..r (MPI_Scan).
func (c *Comm) Scan(op Op, send []byte, recv []byte) error {
	if len(recv) < len(send) {
		return core.Errorf(core.ErrTruncate, "Scan: %d-byte receive buffer truncates %d-byte reduction", len(recv), len(send))
	}
	return c.runColl("scan", len(send), coll.Args{Op: op, Send: send, Recv: recv})
}

// Alltoall exchanges n-byte slices between all pairs: rank r's send slice
// i lands in rank i's recv slice r (MPI_Alltoall). n = len(send)/Size().
func (c *Comm) Alltoall(send []byte, recvBuf []byte) error {
	p := c.Size()
	if p > 0 && len(send)%p != 0 {
		return core.Errorf(core.ErrTruncate, "Alltoall: %d-byte send buffer not divisible into %d rank slices", len(send), p)
	}
	if len(recvBuf) < len(send) {
		return core.Errorf(core.ErrTruncate, "Alltoall: %d-byte receive buffer truncates %d exchanged bytes", len(recvBuf), len(send))
	}
	return c.runColl("alltoall", len(send), coll.Args{Send: send, Recv: recvBuf})
}
