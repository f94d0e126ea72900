package coll

// Reduction algorithms. Every one preserves MPI's canonical evaluation
// order — the combination is always op over contiguous rank ranges with
// the lower range on the left — so non-commutative (but associative)
// operators give the same answer as a sequential rank-order fold. The
// conformance suite pins this with a non-commutative operator.

func init() {
	register("reduce", &Alg{
		Name:   "binomial",
		Rounds: func(h Hint) int { return log2Ceil(h.Ranks) },
		Run: func(c Comm, a Args) error {
			if c.Rank() == a.Root && len(a.Recv) >= len(a.Send) {
				return reduceTree(c, a.Root, a.Op, a.Send, a.Recv)
			}
			// recv is significant only at the root; everyone else
			// accumulates in scratch.
			acc := c.Borrow(len(a.Send))
			return giveBack(c, acc, reduceTree(c, a.Root, a.Op, a.Send, acc))
		},
	})
	register("allreduce", &Alg{
		Name:   "reduce-bcast",
		Rounds: func(h Hint) int { return 2 * log2Ceil(h.Ranks) },
		Run: func(c Comm, a Args) error {
			// The small-message path: every rank accumulates directly in
			// its receive buffer (the broadcast overwrites it anyway), so
			// there is no temporary allocation and no post-reduce copy.
			if err := reduceTree(c, 0, a.Op, a.Send, a.Recv); err != nil {
				return err
			}
			return Run(c, a.Tune, "bcast", len(a.Recv), Args{Root: 0, Buf: a.Recv})
		},
	})
	register("allreduce", &Alg{
		Name:     "rdbl",
		Pow2Only: true,
		Rounds:   func(h Hint) int { return log2Ceil(h.Ranks) },
		Run:      func(c Comm, a Args) error { return allreduceRdbl(c, a.Op, a.Send, a.Recv) },
	})
	register("allreduce", &Alg{
		Name:      "rsag",
		Pow2Only:  true,
		NeedsElem: true,
		Rounds:    func(h Hint) int { return 2 * log2Ceil(h.Ranks) },
		Run:       func(c Comm, a Args) error { return allreduceRsag(c, a.Op, a.Elem, a.Send, a.Recv) },
	})
	register("reducescatter", &Alg{
		Name:   "reduce-scatterv",
		Rounds: func(h Hint) int { return log2Ceil(h.Ranks) + h.Ranks - 1 },
		Run: func(c Comm, a Args) error {
			var full []byte
			if c.Rank() == 0 {
				full = c.Borrow(len(a.Send))
			}
			err := Run(c, a.Tune, "reduce", len(a.Send), Args{Root: 0, Op: a.Op, Send: a.Send, Recv: full})
			if err == nil {
				err = Run(c, a.Tune, "scatterv", len(a.Recv), Args{Root: 0, Send: full, Counts: a.Counts, Recv: a.Recv})
			}
			return giveBack(c, full, err)
		},
	})
	register("scan", &Alg{
		Name:   "linear",
		Rounds: func(h Hint) int { return h.Ranks - 1 },
		Run:    func(c Comm, a Args) error { return scanLinear(c, a.Op, a.Send, a.Recv) },
	})
	register("exscan", &Alg{
		Name:   "linear",
		Rounds: func(h Hint) int { return h.Ranks - 1 },
		Run:    func(c Comm, a Args) error { return exscanLinear(c, a.Op, a.Send, a.Recv) },
	})
}

// reduceTree is the binomial fan-in: each rank folds its children's
// contiguous higher-rank ranges into acc (acc = acc ∘ child), then sends
// acc to its parent. acc must have len(send) bytes; the result lands in
// the root's acc.
func reduceTree(c Comm, root int, op func(dst, src []byte), send, acc []byte) error {
	p := c.Size()
	rel := (c.Rank() - root + p) % p
	acc = acc[:len(send)]
	copy(acc, send)
	if rel&1 == 0 && rel+1 < p {
		// An inner node: its children are rel|mask for every mask below
		// rel's lowest set bit, received in turn into one buffer.
		in := c.Borrow(len(send))
		for mask := 1; mask < p && rel&mask == 0; mask <<= 1 {
			if src := rel | mask; src < p {
				if err := c.Recv((src+root)%p, tagReduce, in); err != nil {
					return giveBack(c, in, err)
				}
				op(acc, in)
			}
		}
		c.Return(in)
	}
	if rel == 0 {
		return nil
	}
	// The parent is rel with its lowest set bit cleared.
	return c.Send((rel&(rel-1)+root)%p, tagReduce, acc)
}

// allreduceRdbl is recursive doubling: in round k every rank exchanges its
// accumulator with rank^2^k and folds, keeping the lower rank range on the
// left (partner below us: acc = partner ∘ acc). log2 P rounds of full
// payload — latency-optimal. Power-of-two communicators only.
func allreduceRdbl(c Comm, op func(dst, src []byte), send, recv []byte) error {
	p := c.Size()
	me := c.Rank()
	acc := recv[:len(send)]
	copy(acc, send)
	if p == 1 {
		return nil
	}
	in := c.Borrow(len(send))
	for mask := 1; mask < p; mask <<= 1 {
		partner := me ^ mask
		if err := c.Sendrecv(partner, acc, partner, in, tagReduce); err != nil {
			return giveBack(c, in, err)
		}
		if partner < me {
			// in holds the lower rank range: acc = in ∘ acc.
			op(in, acc)
			copy(acc, in)
		} else {
			op(acc, in)
		}
	}
	c.Return(in)
	return nil
}

// allreduceRsag is Rabenseifner's reduce-scatter + allgather: recursive
// vector halving with distance doubling reduces each rank's block, then
// the allgather phase reverses the exchanges to rebuild the full vector.
// Bandwidth-optimal (each rank moves ~2·(P-1)/P of the payload instead of
// log2 P full payloads). Splits only at elem-byte boundaries, so it needs
// a declared element size; power-of-two communicators only.
func allreduceRsag(c Comm, op func(dst, src []byte), elem int, send, recv []byte) error {
	p := c.Size()
	me := c.Rank()
	copy(recv, send)
	if p == 1 {
		return nil
	}
	count := len(send) / elem
	acc := recv[:len(send)]
	scratch := c.Borrow((count/2 + 1) * elem)

	// Reduce-scatter phase: nearest partner first (distance doubling) with
	// recursive vector halving. After the round at distance m my kept range
	// holds the rank-ordered fold of my aligned 2m-rank block: partners
	// differ only in bit m, so their kept-range histories are identical
	// (mirror halves of the same range), and the partner with bit m clear
	// covers the adjacent lower block. Pairing at distance p/2 first — the
	// textbook halving order — would fold {0,2} then {1,3}: non-contiguous,
	// wrong for non-commutative operators.
	type step struct{ partner, kLo, kHi, sLo, sHi int }
	var steps [16]step // one per bit of a rank below core.MaxRanks
	n := 0
	lo, hi := 0, count // element range I still own
	for mask := 1; mask < p; mask <<= 1 {
		mid := lo + (hi-lo)/2
		lower := me&mask == 0
		var st step
		if lower {
			st = step{partner: me | mask, kLo: lo, kHi: mid, sLo: mid, sHi: hi}
		} else {
			st = step{partner: me &^ mask, kLo: mid, kHi: hi, sLo: lo, sHi: mid}
		}
		in := scratch[:(st.kHi-st.kLo)*elem]
		if err := c.Sendrecv(st.partner, acc[st.sLo*elem:st.sHi*elem], st.partner, in, tagReduce); err != nil {
			return giveBack(c, scratch, err)
		}
		kept := acc[st.kLo*elem : st.kHi*elem]
		if lower {
			// Partner folds the higher block: kept = kept ∘ in.
			op(kept, in)
		} else {
			// Partner folds the lower block: kept = in ∘ kept.
			op(in, kept)
			copy(kept, in)
		}
		steps[n] = st
		n++
		lo, hi = st.kLo, st.kHi
	}
	c.Return(scratch)

	// Allgather phase: replay the exchanges in reverse. At the replay of
	// step i my fully-reduced range is exactly the range I kept then, and
	// the partner holds its mirror — the range I sent — so one exchange
	// rebuilds the step's whole block.
	for i := n - 1; i >= 0; i-- {
		st := steps[i]
		if err := c.Sendrecv(st.partner, acc[st.kLo*elem:st.kHi*elem], st.partner, acc[st.sLo*elem:st.sHi*elem], tagReduce); err != nil {
			return err
		}
	}
	return nil
}

// scanLinear computes the inclusive prefix along the rank chain: rank r
// receives prefix(0..r-1) straight into recv, folds its own contribution,
// and forwards.
func scanLinear(c Comm, op func(dst, src []byte), send, recv []byte) error {
	out := recv[:len(send)]
	if c.Rank() > 0 {
		if err := c.Recv(c.Rank()-1, tagScan, out); err != nil {
			return err
		}
		// out = prefix(0..r-1) ∘ send.
		op(out, send)
	} else {
		copy(out, send)
	}
	if c.Rank() < c.Size()-1 {
		return c.Send(c.Rank()+1, tagScan, out)
	}
	return nil
}

// exscanLinear computes the exclusive prefix: rank r receives
// prefix(0..r-1) straight into recv and forwards prefix(0..r) from scratch;
// rank 0's recv is left untouched and it forwards its send buffer as is.
func exscanLinear(c Comm, op func(dst, src []byte), send, recv []byte) error {
	me, last := c.Rank(), c.Rank() == c.Size()-1
	if me == 0 {
		if last {
			return nil
		}
		return c.Send(1, tagScan, send)
	}
	prefix := recv[:len(send)]
	if err := c.Recv(me-1, tagScan, prefix); err != nil || last {
		return err
	}
	out := c.Borrow(len(send))
	copy(out, prefix)
	op(out, send) // out = prefix(0..r-1) ∘ send
	return giveBack(c, out, c.Send(me+1, tagScan, out))
}
