package coll

// All-to-all algorithms: the linear shift (round i exchanges with
// rank±i, any communicator size) and the pairwise XOR exchange (round i
// pairs rank with rank^i — a perfect matching each round, contention-free
// on bidirectional fabrics; power-of-two sizes only).

func init() {
	register("alltoall", &Alg{
		Name:   "linear-shift",
		Rounds: func(h Hint) int { return h.Ranks - 1 },
		Run:    func(c Comm, a Args) error { return alltoallShift(c, a.Send, a.Recv) },
	})
	register("alltoall", &Alg{
		Name:     "pairwise",
		Pow2Only: true,
		Rounds:   func(h Hint) int { return h.Ranks - 1 },
		Run:      func(c Comm, a Args) error { return alltoallPairwise(c, a.Send, a.Recv) },
	})
	register("alltoallv", &Alg{
		Name:   "linear-shift",
		Rounds: func(h Hint) int { return h.Ranks - 1 },
		Run: func(c Comm, a Args) error {
			return alltoallvShift(c, a.Send, a.SCounts, a.SDispls, a.Recv, a.RCounts, a.RDispls)
		},
	})
}

// alltoallShift: in round i, send to (rank+i) and receive from (rank-i).
func alltoallShift(c Comm, send, recv []byte) error {
	p := c.Size()
	me := c.Rank()
	n := len(send) / p
	copy(recv[me*n:(me+1)*n], send[me*n:(me+1)*n])
	for round := 1; round < p; round++ {
		to := (me + round) % p
		from := (me - round + p) % p
		if err := c.Sendrecv(to, send[to*n:(to+1)*n], from, recv[from*n:(from+1)*n], tagAlltoall); err != nil {
			return err
		}
	}
	return nil
}

// alltoallPairwise: in round i, exchange with partner rank^i.
func alltoallPairwise(c Comm, send, recv []byte) error {
	p := c.Size()
	me := c.Rank()
	n := len(send) / p
	copy(recv[me*n:(me+1)*n], send[me*n:(me+1)*n])
	for round := 1; round < p; round++ {
		peer := me ^ round
		if err := c.Sendrecv(peer, send[peer*n:(peer+1)*n], peer, recv[peer*n:(peer+1)*n], tagAlltoall); err != nil {
			return err
		}
	}
	return nil
}

// alltoallvShift is the linear shift over per-pair counts/displacements.
func alltoallvShift(c Comm, send []byte, scounts, sdispls []int, recv []byte, rcounts, rdispls []int) error {
	p := c.Size()
	me := c.Rank()
	copy(recv[rdispls[me]:rdispls[me]+rcounts[me]], send[sdispls[me]:sdispls[me]+scounts[me]])
	for round := 1; round < p; round++ {
		to := (me + round) % p
		from := (me - round + p) % p
		if err := c.Sendrecv(to, send[sdispls[to]:sdispls[to]+scounts[to]],
			from, recv[rdispls[from]:rdispls[from]+rcounts[from]], tagAlltoall); err != nil {
			return err
		}
	}
	return nil
}
