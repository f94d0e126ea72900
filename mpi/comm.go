package mpi

import (
	"encoding/binary"
	"sort"

	"repro/internal/coll"
	"repro/internal/core"
)

// mgmtTune pins communicator-management traffic to the binomial broadcast
// regardless of user tuning: bootstrap must work on any communicator shape
// (a forced hardware broadcast is world-only, for instance).
var mgmtTune = coll.Tuning{"bcast": "binomial"}

// mgmtBcast broadcasts communicator-management metadata from root.
func (c *Comm) mgmtBcast(root int, buf []byte) error {
	return coll.Run(collComm{c}, mgmtTune, "bcast", len(buf), coll.Args{Root: root, Buf: buf})
}

// Communicator management: Dup and Split create new communicators whose
// context ids isolate their traffic from the parent's, as required by the
// MPI standard's library-composition guarantees. Agreement on the new
// context id is reached the way real implementations do it: rank 0 of the
// parent allocates and broadcasts.

// Dup creates a communicator with the same group but fresh contexts
// (MPI_Comm_dup). Collective over the parent.
func (c *Comm) Dup() (*Comm, error) {
	ctxBuf := make([]byte, 8)
	if c.rank == 0 {
		binary.LittleEndian.PutUint64(ctxBuf, uint64(c.w.allocCtxPair()))
	}
	if err := c.mgmtBcast(0, ctxBuf); err != nil {
		return nil, err
	}
	ctx := int(int64(binary.LittleEndian.Uint64(ctxBuf)))
	if ctx == ctxExhausted {
		return nil, errCtxExhausted()
	}
	group := make([]int, len(c.group))
	copy(group, c.group)
	return &Comm{
		w:     c.w,
		p:     c.p,
		ep:    c.ep,
		ctx:   ctx,
		group: group,
		rank:  c.rank,
		tune:  c.tune,
	}, nil
}

// Split partitions the communicator by color, ordering ranks within each
// new communicator by (key, parent rank) (MPI_Comm_split). Ranks passing
// color < 0 (like MPI_UNDEFINED) receive nil. Collective over the parent.
func (c *Comm) Split(color, key int) (*Comm, error) {
	p := c.Size()
	// Gather (color, key) pairs everywhere via the collective context.
	mine := make([]byte, 16)
	binary.LittleEndian.PutUint64(mine[0:], uint64(int64(color)))
	binary.LittleEndian.PutUint64(mine[8:], uint64(int64(key)))
	all := make([]byte, 16*p)
	if err := c.Gather(0, mine, all); err != nil {
		return nil, err
	}
	// Rank 0 appends the context ids: one pair per distinct color, in
	// ascending color order.
	meta := make([]byte, 16*p+8*p)
	if c.rank == 0 {
		copy(meta, all)
		colors := map[int64]int{}
		var order []int64
		for r := 0; r < p; r++ {
			col := int64(binary.LittleEndian.Uint64(all[16*r:]))
			if col < 0 {
				continue
			}
			if _, ok := colors[col]; !ok {
				colors[col] = 0
				order = append(order, col)
			}
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		ctxByColor := map[int64]int{}
		exhausted := false
		for _, col := range order {
			ctxByColor[col] = c.w.allocCtxPair()
			exhausted = exhausted || ctxByColor[col] == ctxExhausted
		}
		for r := 0; r < p; r++ {
			col := int64(binary.LittleEndian.Uint64(all[16*r:]))
			ctx := -1
			if exhausted {
				ctx = ctxExhausted // every rank, whatever its color: the call fails as one
			} else if col >= 0 {
				ctx = ctxByColor[col]
			}
			binary.LittleEndian.PutUint64(meta[16*p+8*r:], uint64(int64(ctx)))
		}
	}
	if err := c.mgmtBcast(0, meta); err != nil {
		return nil, err
	}

	myCtx := int(int64(binary.LittleEndian.Uint64(meta[16*p+8*c.rank:])))
	if myCtx == ctxExhausted {
		return nil, errCtxExhausted()
	}
	if color < 0 {
		return nil, nil
	}
	// Build my group: parent ranks with my color, sorted by (key, rank).
	type member struct{ key, parentRank int }
	var members []member
	for r := 0; r < p; r++ {
		col := int64(binary.LittleEndian.Uint64(meta[16*r:]))
		k := int64(binary.LittleEndian.Uint64(meta[16*r+8:]))
		if col == int64(color) {
			members = append(members, member{int(k), r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].parentRank < members[j].parentRank
	})
	group := make([]int, len(members))
	myNewRank := -1
	for i, m := range members {
		group[i] = c.group[m.parentRank]
		if m.parentRank == c.rank {
			myNewRank = i
		}
	}
	if myCtx < 0 || myNewRank < 0 {
		return nil, core.Errorf(core.ErrInternal, "split bookkeeping failed (ctx=%d rank=%d)", myCtx, myNewRank)
	}
	return &Comm{w: c.w, p: c.p, ep: c.ep, ctx: myCtx, group: group, rank: myNewRank, tune: c.tune}, nil
}

// Translate maps a rank of this communicator to the corresponding rank in
// other, or -1 when the process is not a member
// (MPI_Group_translate_ranks).
func (c *Comm) Translate(rank int, other *Comm) int {
	if rank < 0 || rank >= len(c.group) {
		return -1
	}
	return other.commRank(c.group[rank])
}
