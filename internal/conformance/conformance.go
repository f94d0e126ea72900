// Package conformance is an executable specification of the MPI semantics
// every platform variant must provide. Each scenario generates a seeded
// random — but deadlock-free by construction — communication schedule,
// runs it against a World factory, and verifies payload integrity,
// status fields, and MPI's non-overtaking order. The same suite runs over
// the reference in-memory fabric, both Meiko implementations, and all four
// cluster variants.
package conformance

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps"
	"repro/mpi"
)

// Factory builds a fresh n-rank world for one scenario run.
type Factory func(n int) *mpi.World

// Scenario is one conformance check.
type Scenario struct {
	Name  string
	Ranks int
	Body  func(c *mpi.Comm, seed int64) error
}

// fill writes a deterministic pattern identifying (src, dst, seq).
func fill(buf []byte, src, dst, seq int) {
	for i := range buf {
		buf[i] = byte(src*31 + dst*17 + seq*7 + i)
	}
}

// check verifies fill's pattern.
func check(buf []byte, src, dst, seq int) error {
	for i := range buf {
		if buf[i] != byte(src*31+dst*17+seq*7+i) {
			return fmt.Errorf("payload src=%d dst=%d seq=%d corrupt at byte %d", src, dst, seq, i)
		}
	}
	return nil
}

// sizes spans zero-length, eager, threshold-straddling and rendezvous
// messages on every platform (thresholds are 180 and 16 KB).
var sizes = []int{0, 1, 17, 179, 181, 900, 5000, 20_000}

// Scenarios returns the full suite.
func Scenarios() []Scenario {
	return []Scenario{
		{"isend-storm-nonovertaking", 4, isendStorm},
		{"permutation-sendrecv", 5, permutationSendrecv},
		{"wildcard-anysource-drain", 4, wildcardDrain},
		{"mixed-modes", 3, mixedModes},
		{"random-collectives", 4, randomCollectives},
		{"threshold-straddle-pingpong", 2, thresholdStraddle},
		{"communicators", 4, communicators},
		{"persistent-ring", 4, persistentRing},
		{"rma-window-epochs", 4, rmaWindow},
	}
}

// isendStorm: every rank posts all its receives (wildcard), then fires a
// burst of nonblocking sends of random sizes at every other rank, then
// completes everything. Verifies per-source sequence order (the
// non-overtaking rule) across eager/rendezvous mixes and exercises the
// queued-send path (Isend must not block on flow control).
func isendStorm(c *mpi.Comm, seed int64) error {
	rng := rand.New(rand.NewSource(seed + int64(c.Rank())))
	const perPeer = 6
	n := c.Size()
	me := c.Rank()

	total := perPeer * (n - 1)
	recvs := make([]*mpi.Request, 0, total)
	bufs := make([][]byte, 0, total)
	for i := 0; i < total; i++ {
		buf := make([]byte, 24_000)
		r, err := c.Irecv(mpi.AnySource, mpi.AnyTag, buf)
		if err != nil {
			return err
		}
		recvs = append(recvs, r)
		bufs = append(bufs, buf)
	}

	var sendReqs []*mpi.Request
	for seq := 0; seq < perPeer; seq++ {
		for d := 0; d < n; d++ {
			if d == me {
				continue
			}
			size := sizes[rng.Intn(len(sizes))]
			data := make([]byte, size)
			fill(data, me, d, seq)
			r, err := c.Isend(d, seq, data)
			if err != nil {
				return err
			}
			sendReqs = append(sendReqs, r)
		}
	}

	lastSeq := map[int]int{}
	for i, r := range recvs {
		st, err := r.Wait()
		if err != nil {
			return err
		}
		if st.Tag != lastSeq[st.Source] {
			return fmt.Errorf("non-overtaking violated: from %d got seq %d, want %d", st.Source, st.Tag, lastSeq[st.Source])
		}
		lastSeq[st.Source]++
		if err := check(bufs[i][:st.Count], st.Source, me, st.Tag); err != nil {
			return err
		}
	}
	if _, err := mpi.WaitAll(sendReqs...); err != nil {
		return err
	}
	return c.Barrier()
}

// permutationSendrecv: phases of random permutations exchanged with
// Sendrecv — deadlock-free by construction, stressing bidirectional
// traffic and varying sizes.
func permutationSendrecv(c *mpi.Comm, seed int64) error {
	n := c.Size()
	me := c.Rank()
	const phases = 8
	for ph := 0; ph < phases; ph++ {
		rng := rand.New(rand.NewSource(seed + int64(ph))) // same on all ranks
		perm := rng.Perm(n)
		inv := make([]int, n)
		for i, p := range perm {
			inv[p] = i
		}
		size := sizes[rng.Intn(len(sizes))]
		out := make([]byte, size)
		fill(out, me, perm[me], ph)
		in := make([]byte, size)
		st, err := c.Sendrecv(perm[me], ph, out, inv[me], ph, in)
		if err != nil {
			return err
		}
		if st.Source != inv[me] || st.Count != size {
			return fmt.Errorf("phase %d: status %+v, want src %d count %d", ph, st, inv[me], size)
		}
		if err := check(in, inv[me], me, ph); err != nil {
			return err
		}
	}
	return nil
}

// wildcardDrain: many-to-one with Probe + ANY_SOURCE receives sized from
// the probed count.
func wildcardDrain(c *mpi.Comm, seed int64) error {
	rng := rand.New(rand.NewSource(seed + 100 + int64(c.Rank())))
	n := c.Size()
	const per = 4
	if c.Rank() != 0 {
		for i := 0; i < per; i++ {
			size := sizes[rng.Intn(len(sizes))]
			data := make([]byte, size)
			fill(data, c.Rank(), 0, i)
			if err := c.Send(0, i, data); err != nil {
				return err
			}
		}
		return c.Barrier()
	}
	seen := map[int]int{}
	for k := 0; k < per*(n-1); k++ {
		st, err := c.Probe(mpi.AnySource, mpi.AnyTag)
		if err != nil {
			return err
		}
		buf := make([]byte, st.Count)
		st2, err := c.Recv(st.Source, st.Tag, buf)
		if err != nil {
			return err
		}
		if st2.Count != st.Count {
			return fmt.Errorf("probe count %d != recv count %d", st.Count, st2.Count)
		}
		if st2.Tag != seen[st2.Source] {
			return fmt.Errorf("from %d: tag %d, want %d (order)", st2.Source, st2.Tag, seen[st2.Source])
		}
		seen[st2.Source]++
		if err := check(buf, st2.Source, 0, st2.Tag); err != nil {
			return err
		}
	}
	return c.Barrier()
}

// mixedModes exercises all four send modes against delayed receivers.
func mixedModes(c *mpi.Comm, seed int64) error {
	switch c.Rank() {
	case 0:
		c.BufferAttach(64 * 1024)
		if err := c.Bsend(1, 0, make([]byte, 700)); err != nil {
			return err
		}
		if err := c.Ssend(1, 1, make([]byte, 300)); err != nil {
			return err
		}
		if err := c.Send(1, 2, make([]byte, 5000)); err != nil {
			return err
		}
		// Rank 2 posted its receive before the barrier, so ready mode is
		// legal here.
		if err := c.Barrier(); err != nil {
			return err
		}
		return c.Rsend(2, 3, make([]byte, 100))
	case 1:
		for tag := 0; tag < 3; tag++ {
			if _, err := c.Recv(0, tag, make([]byte, 5000)); err != nil {
				return err
			}
		}
		return c.Barrier()
	default:
		req, err := c.Irecv(0, 3, make([]byte, 100))
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		_, err = req.Wait()
		return err
	}
}

// randomCollectives runs a seeded sequence of collectives and verifies
// each against locally computed expectations.
func randomCollectives(c *mpi.Comm, seed int64) error {
	rng := rand.New(rand.NewSource(seed + 999)) // same schedule everywhere
	n := c.Size()
	for step := 0; step < 10; step++ {
		switch rng.Intn(5) {
		case 0: // bcast
			root := rng.Intn(n)
			size := 1 + rng.Intn(2000)
			buf := make([]byte, size)
			if c.Rank() == root {
				fill(buf, root, step, step)
			}
			if err := c.Bcast(root, buf); err != nil {
				return err
			}
			if err := check(buf, root, step, step); err != nil {
				return fmt.Errorf("step %d bcast: %w", step, err)
			}
		case 1: // allreduce sum
			out := make([]float64, 1)
			if err := c.AllreduceFloat64(mpi.SumFloat64, []float64{float64(c.Rank() + step)}, out); err != nil {
				return err
			}
			want := float64(n*step + n*(n-1)/2)
			if out[0] != want {
				return fmt.Errorf("step %d allreduce: %v want %v", step, out[0], want)
			}
		case 2: // barrier
			if err := c.Barrier(); err != nil {
				return err
			}
		case 3: // gather at random root
			root := rng.Intn(n)
			all := make([]byte, n)
			if err := c.Gather(root, []byte{byte(40 + c.Rank())}, all); err != nil {
				return err
			}
			if c.Rank() == root {
				for i := range all {
					if all[i] != byte(40+i) {
						return fmt.Errorf("step %d gather[%d] = %d", step, i, all[i])
					}
				}
			}
		default: // alltoall
			send := make([]byte, n)
			for i := range send {
				send[i] = byte(c.Rank()*10 + i)
			}
			recv := make([]byte, n)
			if err := c.Alltoall(send, recv); err != nil {
				return err
			}
			for i := range recv {
				if recv[i] != byte(i*10+c.Rank()) {
					return fmt.Errorf("step %d alltoall[%d] = %d", step, i, recv[i])
				}
			}
		}
	}
	return nil
}

// thresholdStraddle ping-pongs sizes bracketing every protocol boundary.
func thresholdStraddle(c *mpi.Comm, seed int64) error {
	straddle := []int{178, 179, 180, 181, 182, 16_382, 16_384, 16_386}
	for i, size := range straddle {
		buf := make([]byte, size)
		if c.Rank() == 0 {
			fill(buf, 0, 1, i)
			if err := c.Send(1, i, buf); err != nil {
				return err
			}
			in := make([]byte, size)
			if _, err := c.Recv(1, i, in); err != nil {
				return err
			}
			if err := check(in, 1, 0, i); err != nil {
				return err
			}
		} else {
			in := make([]byte, size)
			if _, err := c.Recv(0, i, in); err != nil {
				return err
			}
			if err := check(in, 0, 1, i); err != nil {
				return err
			}
			fill(buf, 1, 0, i)
			if err := c.Send(0, i, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run executes every scenario against the factory with several seeds.
// Each (scenario, seed) pair runs twice and the virtual end times must be
// bit-identical — any hidden nondeterminism in a platform model fails the
// whole suite.
func Run(f Factory, seeds []int64) error {
	for _, sc := range Scenarios() {
		for _, seed := range seeds {
			seed := seed
			var elapsed [2]int64
			for round := 0; round < 2; round++ {
				w := f(sc.Ranks)
				rep, err := mpi.Launch(w, func(c *mpi.Comm) error { return sc.Body(c, seed) })
				if err != nil {
					return fmt.Errorf("%s (seed %d): %w", sc.Name, seed, err)
				}
				elapsed[round] = int64(rep.MaxRankElapsed)
			}
			if elapsed[0] != elapsed[1] {
				return fmt.Errorf("%s (seed %d): nondeterministic timeline (%dns vs %dns)", sc.Name, seed, elapsed[0], elapsed[1])
			}
		}
	}
	return nil
}

// communicators exercises Dup isolation and Split sub-worlds with
// collectives inside each part.
func communicators(c *mpi.Comm, seed int64) error {
	dup, err := c.Dup()
	if err != nil {
		return err
	}
	// Same tag on parent and dup: contexts must isolate.
	if c.Rank() == 0 {
		if err := c.Send(1, 9, []byte{1}); err != nil {
			return err
		}
		if err := dup.Send(1, 9, []byte{2}); err != nil {
			return err
		}
	}
	if c.Rank() == 1 {
		b := make([]byte, 1)
		if _, err := dup.Recv(0, 9, b); err != nil {
			return err
		}
		if b[0] != 2 {
			return fmt.Errorf("dup got %d", b[0])
		}
		if _, err := c.Recv(0, 9, b); err != nil {
			return err
		}
		if b[0] != 1 {
			return fmt.Errorf("parent got %d", b[0])
		}
	}
	// Split into halves; allreduce within each half.
	half, err := c.Split(c.Rank()%2, c.Rank())
	if err != nil {
		return err
	}
	sum := make([]float64, 1)
	if err := half.AllreduceFloat64(mpi.SumFloat64, []float64{1}, sum); err != nil {
		return err
	}
	if int(sum[0]) != half.Size() {
		return fmt.Errorf("half allreduce = %v, size %d", sum[0], half.Size())
	}
	return c.Barrier()
}

// rmaWindow drives the MPI-2 one-sided API through three fence epochs on
// every backend flavor — native remote memory and the deferred-at-fence
// emulation alike: a ring halo exchange via Put (rendezvous-sized, so the
// emulated fence moves its blobs by RTS, CTS and Data), a gather of every
// rank's contribution into rank 0's slots, and rank 0 Putting the total
// back into slot 0 of every rank, itself included.
func rmaWindow(c *mpi.Comm, seed int64) error {
	n := c.Size()
	me := c.Rank()
	const cell = 20_000 // past every eager threshold (180 and 16 KB)
	// Layout: [left halo cell | right halo cell | one 8-byte slot per rank].
	win, err := c.WinCreate(2*cell + 8*n)
	if err != nil {
		return err
	}
	right := (me + 1) % n
	left := (me - 1 + n) % n

	// Epoch 1: halo exchange. My pattern lands in the right neighbor's
	// left halo and the left neighbor's right halo.
	outR := make([]byte, cell)
	fill(outR, me, right, 0)
	if err := win.Put(right, 0, outR); err != nil {
		return err
	}
	outL := make([]byte, cell)
	fill(outL, me, left, 1)
	if err := win.Put(left, cell, outL); err != nil {
		return err
	}
	if err := win.Fence(); err != nil {
		return err
	}
	if err := check(win.Bytes()[:cell], left, me, 0); err != nil {
		return fmt.Errorf("left halo: %w", err)
	}
	if err := check(win.Bytes()[cell:2*cell], right, me, 1); err != nil {
		return fmt.Errorf("right halo: %w", err)
	}

	// Epoch 2: every rank Puts rank+1 into its own slot on rank 0.
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], uint64(me+1))
	if err := win.Put(0, 2*cell+8*me, v[:]); err != nil {
		return err
	}
	if err := win.Fence(); err != nil {
		return err
	}

	// Epoch 3: rank 0 sums the slots and Puts the total into slot 0 of
	// every rank.
	want := uint64(n * (n + 1) / 2)
	if me == 0 {
		var sum uint64
		for r := 0; r < n; r++ {
			sum += binary.LittleEndian.Uint64(win.Bytes()[2*cell+8*r:])
		}
		if sum != want {
			return fmt.Errorf("slots after the gather epoch sum to %d, want %d", sum, want)
		}
		binary.LittleEndian.PutUint64(v[:], sum)
		for r := 0; r < n; r++ {
			if err := win.Put(r, 2*cell, v[:]); err != nil {
				return err
			}
		}
	}
	if err := win.Fence(); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint64(win.Bytes()[2*cell:]); got != want {
		return fmt.Errorf("rank %d read total %d, want %d", me, got, want)
	}
	return win.Free()
}

// The ft-shrink-allreduce scenario's fixed geometry: the world must be
// built with FTShrinkRanks ranks and a kill schedule of FTShrinkKills,
// which removes FTShrinkVictim during its pre-collective compute phase so
// the survivors park inside the allreduce when the death lands.
const (
	FTShrinkRanks  = 4
	FTShrinkVictim = 2
	FTShrinkKills  = "2@50us"
)

// FTShrinkAllreduce is the fault-tolerance scenario: one rank dies
// mid-allreduce, and every survivor must observe the failure (ErrPeerDown
// or a peer's revoke), run Revoke → Agree → Shrink, and complete the
// reduction on the shrunken communicator with exactly the survivors'
// contributions. It is not part of Scenarios() because it needs a kill
// schedule in the world spec — build the factory with Kills set to
// FTShrinkKills — and because the Meiko MPICH endpoint (by design)
// rejects kill schedules.
func FTShrinkAllreduce(c *mpi.Comm, seed int64) error {
	res, err := apps.FTShrink(c, apps.FTShrinkConfig{Compute: 100 * time.Microsecond})
	if err != nil {
		return err
	}
	if res.Died {
		if c.Rank() != FTShrinkVictim {
			return fmt.Errorf("rank %d died; only rank %d is scheduled to", c.Rank(), FTShrinkVictim)
		}
		return nil
	}
	if c.Rank() == FTShrinkVictim {
		return fmt.Errorf("victim rank %d survived its kill", FTShrinkVictim)
	}
	if !res.Shrunk {
		return fmt.Errorf("rank %d completed without shrinking — the kill never interrupted the collective", c.Rank())
	}
	if res.Survivors != FTShrinkRanks-1 {
		return fmt.Errorf("rank %d shrank to %d ranks, want %d", c.Rank(), res.Survivors, FTShrinkRanks-1)
	}
	want := int64(0)
	for r := 0; r < FTShrinkRanks; r++ {
		if r != FTShrinkVictim {
			want += int64(r) + 1
		}
	}
	if res.Sum != want {
		return fmt.Errorf("rank %d: shrunken allreduce = %d, want %d", c.Rank(), res.Sum, want)
	}
	return nil
}

// persistentRing drives persistent send/recv requests around a ring.
func persistentRing(c *mpi.Comm, seed int64) error {
	n := c.Size()
	right := (c.Rank() + 1) % n
	left := (c.Rank() - 1 + n) % n
	out := make([]byte, 8)
	in := make([]byte, 8)
	ps := c.SendInit(right, 3, out)
	pr := c.RecvInit(left, 3, in)
	for round := 0; round < 5; round++ {
		fill(out, c.Rank(), right, round)
		rr, err := pr.Start()
		if err != nil {
			return err
		}
		sr, err := ps.Start()
		if err != nil {
			return err
		}
		if _, err := sr.Wait(); err != nil {
			return err
		}
		if _, err := rr.Wait(); err != nil {
			return err
		}
		if err := check(in, left, c.Rank(), round); err != nil {
			return err
		}
	}
	return nil
}
