package coll

// Gather/scatter family: the rooted linear algorithms (the paper's
// implementations) and the allgather variants — gather+bcast for small
// payloads, the ring for bulk, where the root's fan-in/fan-out bottleneck
// dominates.

func init() {
	register("gather", &Alg{
		Name:   "linear",
		Rounds: func(h Hint) int { return h.Ranks - 1 },
		Run:    func(c Comm, a Args) error { return gatherLinear(c, a.Root, a.Send, a.Recv, a.Counts) },
	})
	register("gatherv", &Alg{
		Name:   "linear",
		Rounds: func(h Hint) int { return h.Ranks - 1 },
		Run:    func(c Comm, a Args) error { return gatherLinear(c, a.Root, a.Send, a.Recv, a.Counts) },
	})
	register("scatter", &Alg{
		Name:   "linear",
		Rounds: func(h Hint) int { return h.Ranks - 1 },
		Run:    func(c Comm, a Args) error { return scatterLinear(c, a.Root, a.Send, a.Counts, a.Recv) },
	})
	register("scatterv", &Alg{
		Name:   "linear",
		Rounds: func(h Hint) int { return h.Ranks - 1 },
		Run:    func(c Comm, a Args) error { return scatterLinear(c, a.Root, a.Send, a.Counts, a.Recv) },
	})
	register("allgather", &Alg{
		Name:   "gather-bcast",
		Rounds: func(h Hint) int { return h.Ranks - 1 + log2Ceil(h.Ranks) },
		Run:    func(c Comm, a Args) error { return allgatherGatherBcast(c, a.Tune, a.Send, a.Recv, a.Counts) },
	})
	register("allgather", &Alg{
		Name:   "ring",
		Rounds: func(h Hint) int { return h.Ranks - 1 },
		Run:    func(c Comm, a Args) error { return allgatherRing(c, a.Send, a.Recv) },
	})
	register("allgatherv", &Alg{
		Name:   "gather-bcast",
		Rounds: func(h Hint) int { return h.Ranks - 1 + log2Ceil(h.Ranks) },
		Run:    func(c Comm, a Args) error { return allgatherGatherBcast(c, a.Tune, a.Send, a.Recv, a.Counts) },
	})
}

// rankBytes is rank r's byte count under counts, where nil means every
// rank moves n bytes.
func rankBytes(counts []int, r, n int) int {
	if counts == nil {
		return n
	}
	return counts[r]
}

// gatherLinear collects each rank's counts[r] bytes at the root, ordered
// by rank (nil counts: len(send) from every rank); recv is only used at
// the root.
func gatherLinear(c Comm, root int, send, recv []byte, counts []int) error {
	if c.Rank() != root {
		return c.Send(root, tagGather, send)
	}
	off := 0
	for r := 0; r < c.Size(); r++ {
		n := rankBytes(counts, r, len(send))
		if r == root {
			copy(recv[off:off+n], send)
		} else {
			if err := c.Recv(r, tagGather, recv[off:off+n]); err != nil {
				return err
			}
		}
		off += n
	}
	return nil
}

// scatterLinear distributes counts[r] bytes from the root's send buffer to
// each rank r (nil counts: len(recv) to every rank).
func scatterLinear(c Comm, root int, send []byte, counts []int, recv []byte) error {
	if c.Rank() != root {
		return c.Recv(root, tagScatter, recv)
	}
	off := 0
	for r := 0; r < c.Size(); r++ {
		n := rankBytes(counts, r, len(recv))
		if r == root {
			copy(recv, send[off:off+n])
		} else {
			if err := c.Send(r, tagScatter, send[off:off+n]); err != nil {
				return err
			}
		}
		off += n
	}
	return nil
}

// allgatherGatherBcast gathers at rank 0 then broadcasts the assembled
// buffer; the inner steps resolve through the registry, so the broadcast
// rides the hardware network where there is one.
func allgatherGatherBcast(c Comm, t Tuning, send, recv []byte, counts []int) error {
	if err := Run(c, t, "gather", len(send), Args{Root: 0, Send: send, Recv: recv, Counts: counts}); err != nil {
		return err
	}
	return Run(c, t, "bcast", len(recv), Args{Root: 0, Buf: recv})
}

// allgatherRing rotates blocks around the ring: in round i every rank
// forwards the block it received in round i-1, so after P-1 rounds each
// rank holds all P blocks having sent and received only (P-1)/P of the
// total payload — no root bottleneck.
func allgatherRing(c Comm, send, recv []byte) error {
	p := c.Size()
	me := c.Rank()
	n := len(send)
	copy(recv[me*n:(me+1)*n], send)
	if p == 1 {
		return nil
	}
	right := (me + 1) % p
	left := (me - 1 + p) % p
	for i := 0; i < p-1; i++ {
		outBlk := (me - i + p) % p
		inBlk := (me - i - 1 + 2*p) % p
		if err := c.Sendrecv(right, recv[outBlk*n:(outBlk+1)*n], left, recv[inBlk*n:(inBlk+1)*n], tagGather); err != nil {
			return err
		}
	}
	return nil
}
