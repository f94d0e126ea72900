package coll

// Barrier algorithms: the dissemination barrier (log2 P rounds of
// pairwise tokens) and the broadcast-assisted tree (binomial fan-in to
// rank 0 plus a broadcast release, which rides the Meiko's hardware
// broadcast when the platform has one — Yu et al.'s NIC-assisted barrier
// shape).

func init() {
	register("barrier", &Alg{
		Name:   "dissemination",
		Rounds: func(h Hint) int { return log2Ceil(h.Ranks) },
		Run:    func(c Comm, a Args) error { return barrierDissemination(c) },
	})
	register("barrier", &Alg{
		Name:   "tree",
		Rounds: func(h Hint) int { return log2Ceil(h.Ranks) + 1 },
		Run:    func(c Comm, a Args) error { return barrierTree(c, a.Tune) },
	})
}

// barrierDissemination: in round k every rank sends a token to
// (rank + 2^k) and waits for one from (rank - 2^k); after ceil(log2 P)
// rounds everyone has transitively heard from everyone.
func barrierDissemination(c Comm) error {
	p := c.Size()
	me := c.Rank()
	if p == 1 {
		return nil
	}
	buf := c.Borrow(2) // the token sent and the one received
	for k := 1; k < p; k <<= 1 {
		to := (me + k) % p
		from := (me - k + p) % p
		if err := c.Sendrecv(to, buf[:1], from, buf[1:], tagBarrier); err != nil {
			return giveBack(c, buf, err)
		}
	}
	c.Return(buf)
	return nil
}

// barrierTree: binomial fan-in of tokens to rank 0, then a one-byte
// broadcast release resolved through the bcast registry — on hardware
// platforms the release is a single broadcast transaction.
func barrierTree(c Comm, t Tuning) error {
	p := c.Size()
	if p == 1 {
		return nil
	}
	me := c.Rank()
	token := c.Borrow(1)
	for mask := 1; mask < p; mask <<= 1 {
		if me&mask != 0 {
			if err := c.Send(me&^mask, tagBarrier, token); err != nil {
				return giveBack(c, token, err)
			}
			break
		}
		if src := me | mask; src < p {
			if err := c.Recv(src, tagBarrier, token); err != nil {
				return giveBack(c, token, err)
			}
		}
	}
	return giveBack(c, token, Run(c, t, "bcast", 1, Args{Root: 0, Buf: token}))
}
