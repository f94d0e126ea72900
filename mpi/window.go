package mpi

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/sim"
)

// AccOp selects the element-wise operator of Win.Accumulate. The operators
// are commutative, so same-epoch accumulates from different origins yield
// the same window contents regardless of delivery order.
type AccOp = core.RMAOp

// Accumulate operators (MPI_REPLACE, MPI_SUM over int64/float64 elements,
// MPI_BXOR over bytes).
const (
	// AccReplace overwrites the target bytes (MPI_REPLACE).
	AccReplace = core.RMAReplace
	// AccSumInt64 adds little-endian int64 elements (MPI_SUM).
	AccSumInt64 = core.RMASumInt64
	// AccSumFloat64 adds little-endian float64 elements (MPI_SUM).
	AccSumFloat64 = core.RMASumFloat64
	// AccXor xors bytes (MPI_BXOR).
	AccXor = core.RMAXor
)

// rmaEndpoint is the promoted engine surface a device endpoint exposes
// when its transport can do native one-sided transfers. *core.Engine
// implements it; engine-backed endpoints (the in-memory fabric, the Meiko
// low-latency device, the cluster shared-memory segment) inherit it by
// embedding. SupportsRMA still gates the native path per transport:
// socket transports share the engine but have no remote-write primitive.
type rmaEndpoint interface {
	core.Endpoint
	SupportsRMA() bool
	WinCreate(id, size int) (*core.WinState, error)
	WinFree(id int)
	RMAPut(p *sim.Proc, dst, id, off int, data []byte) error
	RMAGet(p *sim.Proc, dst, id, off int, buf []byte) error
	RMAAccumulate(p *sim.Proc, dst, id, off int, data []byte, op core.RMAOp) error
	WinFence(p *sim.Proc, id int) error
	WinLock(p *sim.Proc, dst, id int, excl bool) error
	WinUnlock(p *sim.Proc, dst, id int) error
}

// Win is an MPI-2 one-sided communication window (MPI_Win): a region of
// this rank's memory exposed to Put/Get/Accumulate from every rank of the
// creating communicator, with access epochs delimited by Fence (active
// target) or Lock/Unlock (passive target).
//
// On transports with a remote-memory primitive (Meiko Elan transactions
// and DMA, the in-memory fabric, the cluster shared-memory segment) the
// operations map to native one-sided transfers that bypass the message
// matcher. Socket transports have no remote-write primitive, so windows
// fall back to a deferred-at-fence emulation: operations are recorded at
// the origin and exchanged as matched messages inside the closing Fence,
// applied in source-rank order. Both flavors meet MPI's epoch contract —
// one-sided results are undefined until the epoch closes — but only the
// native flavor supports passive-target locks.
type Win struct {
	c      *Comm // window-private communicator (fresh context pair = window id)
	id     int
	sizes  []int // per-rank region sizes, indexed by comm rank
	native bool

	ne rmaEndpoint    // native path (nil when emulated)
	st *core.WinState // this rank's region (both paths)

	// Emulated-path epoch state: recorded operations per target comm rank,
	// and the origin-side get landings.
	pend [][]winOp
	gets []winGet
}

// winOp is one recorded one-sided operation awaiting the closing fence.
type winOp struct {
	kind byte // opPut, opAcc, opGet
	off  int
	op   core.RMAOp
	data []byte // put/acc payload snapshot
	idx  int    // get: index into Win.gets
}

// winGet is an origin-side pending get: where the reply lands.
type winGet struct {
	target int
	buf    []byte
}

const (
	opPut byte = iota
	opAcc
	opGet
)

// Fence-protocol tags on the window's private context.
const (
	winTagFence = 0 // operation blobs
	winTagGets  = 1 // get replies
)

// WinCreate collectively creates a window exposing size bytes of this
// rank's memory (MPI_Win_create; sizes may differ per rank, zero exposes
// nothing). The window gets a private communicator context, so its
// internal traffic can never collide with user messages.
func (c *Comm) WinCreate(size int) (*Win, error) {
	if size < 0 {
		return nil, core.Errorf(core.ErrInternal, "negative window size %d", size)
	}
	// Dup's root-allocates-and-broadcasts agreement hands every rank the
	// same fresh context pair; the point-to-point context doubles as the
	// window id (unique per world, same id on every rank).
	wc, err := c.Dup()
	if err != nil {
		return nil, err
	}
	w := &Win{c: wc, id: wc.ctx}

	// Every rank needs every region size for origin-side bounds checks.
	mine := make([]byte, 8)
	binary.LittleEndian.PutUint64(mine, uint64(size))
	all := make([]byte, 8*wc.Size())
	if err := wc.Allgather(mine, all); err != nil {
		return nil, err
	}
	w.sizes = make([]int, wc.Size())
	for r := range w.sizes {
		w.sizes[r] = int(binary.LittleEndian.Uint64(all[8*r:]))
	}

	if ne, ok := wc.ep.(rmaEndpoint); ok && ne.SupportsRMA() {
		st, err := ne.WinCreate(w.id, size)
		if err != nil {
			return nil, err
		}
		w.native, w.ne, w.st = true, ne, st
	} else {
		w.st = &core.WinState{ID: w.id, Mem: make([]byte, size)}
		w.pend = make([][]winOp, wc.Size())
	}
	// Creation is an epoch boundary: no rank may be targeted before its
	// window exists everywhere.
	return w, wc.Barrier()
}

// Bytes exposes this rank's window region. Reading it between an
// operation and the closing Fence observes unspecified intermediate
// state, exactly as MPI leaves it undefined.
func (w *Win) Bytes() []byte { return w.st.Mem }

// Native reports whether one-sided operations map to the transport's
// remote-memory primitive (false means deferred-at-fence emulation over
// matched sends).
func (w *Win) Native() bool { return w.native }

// checkAccess validates an origin-side access of n bytes at off in dst's
// region, using the sizes gathered at creation.
func (w *Win) checkAccess(dst, off, n int) error {
	if dst < 0 || dst >= w.c.Size() {
		return core.Errorf(core.ErrInternal, "one-sided op to rank %d out of range for window over %d ranks", dst, w.c.Size())
	}
	if off < 0 || n < 0 || off+n > w.sizes[dst] {
		return core.Errorf(core.ErrInternal, "one-sided access [%d,%d) outside rank %d's %d-byte window", off, off+n, dst, w.sizes[dst])
	}
	return nil
}

// Put transfers data into rank dst's window region at byte offset off
// (MPI_Put). The transfer completes at the closing Fence (or Unlock);
// until then data must stay unmodified and the target contents are
// undefined.
func (w *Win) Put(dst, off int, data []byte) error {
	if err := w.checkAccess(dst, off, len(data)); err != nil {
		return err
	}
	if w.native {
		wr, err := w.c.worldRank(dst)
		if err != nil {
			return err
		}
		return w.ne.RMAPut(w.c.p, wr, w.id, off, data)
	}
	snap := make([]byte, len(data))
	copy(snap, data)
	w.pend[dst] = append(w.pend[dst], winOp{kind: opPut, off: off, data: snap})
	return nil
}

// Get transfers len(buf) bytes from rank dst's window region at off into
// buf (MPI_Get). buf is valid only after the closing Fence (or Unlock).
func (w *Win) Get(dst, off int, buf []byte) error {
	if err := w.checkAccess(dst, off, len(buf)); err != nil {
		return err
	}
	if w.native {
		wr, err := w.c.worldRank(dst)
		if err != nil {
			return err
		}
		return w.ne.RMAGet(w.c.p, wr, w.id, off, buf)
	}
	w.gets = append(w.gets, winGet{target: dst, buf: buf})
	w.pend[dst] = append(w.pend[dst], winOp{kind: opGet, off: off, idx: len(w.gets) - 1})
	return nil
}

// Accumulate combines data into rank dst's window region at off with op
// (MPI_Accumulate). Like Put, it completes at the closing Fence.
func (w *Win) Accumulate(dst, off int, data []byte, op AccOp) error {
	if err := w.checkAccess(dst, off, len(data)); err != nil {
		return err
	}
	if !op.ValidLen(len(data)) {
		return core.Errorf(core.ErrInternal, "%d-byte accumulate payload not a multiple of the %s element size", len(data), op)
	}
	if w.native {
		wr, err := w.c.worldRank(dst)
		if err != nil {
			return err
		}
		return w.ne.RMAAccumulate(w.c.p, wr, w.id, off, data, op)
	}
	snap := make([]byte, len(data))
	copy(snap, data)
	w.pend[dst] = append(w.pend[dst], winOp{kind: opAcc, off: off, op: op, data: snap})
	return nil
}

// Fence closes the current access epoch and opens the next
// (MPI_Win_fence): it is collective, and on return every one-sided
// operation issued by any rank in the closing epoch is complete — puts
// and accumulates applied at their targets, gets landed at their origins.
func (w *Win) Fence() error {
	if w.native {
		if err := w.ne.WinFence(w.c.p, w.id); err != nil {
			return err
		}
		return w.c.Barrier()
	}
	return w.fenceEmulated()
}

// Lock opens a passive-target access epoch on rank dst's window
// (MPI_Win_lock; excl selects MPI_LOCK_EXCLUSIVE over MPI_LOCK_SHARED).
// Passive target requires the transport's native remote-memory
// capability: emulated windows would need the target inside the epoch,
// which is exactly what passive target promises not to require.
func (w *Win) Lock(dst int, excl bool) error {
	if err := w.checkAccess(dst, 0, 0); err != nil {
		return err
	}
	if !w.native {
		return core.Errorf(core.ErrInternal, "passive-target lock needs a transport with native remote memory (window is emulated over matched sends)")
	}
	wr, err := w.c.worldRank(dst)
	if err != nil {
		return err
	}
	return w.ne.WinLock(w.c.p, wr, w.id, excl)
}

// Unlock closes the passive-target epoch on rank dst (MPI_Win_unlock):
// on return the operations issued under the lock are complete at both
// ends, and the lock is released.
func (w *Win) Unlock(dst int) error {
	if err := w.checkAccess(dst, 0, 0); err != nil {
		return err
	}
	if !w.native {
		return core.Errorf(core.ErrInternal, "passive-target lock needs a transport with native remote memory (window is emulated over matched sends)")
	}
	wr, err := w.c.worldRank(dst)
	if err != nil {
		return err
	}
	return w.ne.WinUnlock(w.c.p, wr, w.id)
}

// Free collectively releases the window (MPI_Win_free). The caller must
// have closed the last epoch (Fence) first; Free barriers so no rank
// tears its region down while a peer could still target it.
func (w *Win) Free() error {
	if err := w.c.Barrier(); err != nil {
		return err
	}
	if w.native {
		w.ne.WinFree(w.id)
	}
	w.st = nil
	return nil
}

// ------------------------------------------------- deferred-at-fence path --
//
// The emulated closing fence runs a deterministic four-step exchange on
// the window's private context:
//
//  1. serialize this epoch's recorded operations into one blob per
//     target, and swap blob lengths with an alltoall;
//  2. exchange the blobs as matched messages (self-targeted blobs
//     short-circuit locally);
//  3. apply arriving blobs in source-rank order — puts and accumulates
//     mutate the local region, get requests are collected;
//  4. serve the collected gets from the post-apply region, reply to each
//     origin, land replies into the recorded buffers, and barrier.
//
// Applying in source-rank order makes the epoch deterministic: MPI
// declares overlapping same-epoch puts erroneous and accumulate operators
// are commutative, so any fixed order is a legal serialization.

// fenceEmulated implements Fence over matched sends.
func (w *Win) fenceEmulated() error {
	n := w.c.Size()
	me := w.c.Rank()

	blobs := make([][]byte, n)
	for t := 0; t < n; t++ {
		blobs[t] = w.encodeOps(w.pend[t])
	}

	lens := make([]byte, 8*n)
	for t := range blobs {
		binary.LittleEndian.PutUint64(lens[8*t:], uint64(len(blobs[t])))
	}
	inLens := make([]byte, 8*n)
	if err := w.c.Alltoall(lens, inLens); err != nil {
		return err
	}

	// Pre-post the get-reply receives: their lengths are known from our
	// own get list.
	replyLen := make([]int, n)
	for _, g := range w.gets {
		replyLen[g.target] += 8 + len(g.buf)
	}
	var reqs []*Request
	replies := make([][]byte, n)
	for t := 0; t < n; t++ {
		if t == me || replyLen[t] == 0 {
			continue
		}
		replies[t] = make([]byte, replyLen[t])
		r, err := w.c.Irecv(t, winTagGets, replies[t])
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}

	// Exchange operation blobs.
	inBlobs := make([][]byte, n)
	for s := 0; s < n; s++ {
		if s == me {
			inBlobs[s] = blobs[me]
			continue
		}
		sz := int(binary.LittleEndian.Uint64(inLens[8*s:]))
		if sz == 0 {
			continue
		}
		inBlobs[s] = make([]byte, sz)
		r, err := w.c.Irecv(s, winTagFence, inBlobs[s])
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	var blobReqs []*Request
	for t := 0; t < n; t++ {
		if t == me || len(blobs[t]) == 0 {
			continue
		}
		r, err := w.c.Isend(t, winTagFence, blobs[t])
		if err != nil {
			return err
		}
		blobReqs = append(blobReqs, r)
	}
	if _, err := WaitAll(blobReqs...); err != nil {
		return err
	}

	// Apply in source-rank order, collecting get requests for phase 4.
	// Incoming blobs must all have arrived first.
	type getReq struct{ idx, off, n int }
	getsBySrc := make([][]getReq, n)
	apply := func(src int) error {
		blob := inBlobs[src]
		for pos := 0; pos < len(blob); {
			kind := blob[pos]
			off := int(binary.LittleEndian.Uint64(blob[pos+1:]))
			sz := int(binary.LittleEndian.Uint64(blob[pos+9:]))
			pos += 17
			switch kind {
			case opPut:
				w.st.ApplyAccumulate(off, blob[pos:pos+sz], core.RMAReplace)
				pos += sz
			case opAcc:
				op := core.RMAOp(blob[pos])
				pos++
				w.st.ApplyAccumulate(off, blob[pos:pos+sz], op)
				pos += sz
			case opGet:
				idx := int(binary.LittleEndian.Uint64(blob[pos:]))
				pos += 8
				getsBySrc[src] = append(getsBySrc[src], getReq{idx: idx, off: off, n: sz})
			default:
				return core.Errorf(core.ErrInternal, "corrupt window fence blob from rank %d (op %d)", src, kind)
			}
		}
		return nil
	}
	// Waiting on our own Irecvs completes them in reqs order; WaitAll
	// above already drained the sends, so only receives remain.
	if _, err := WaitAll(reqs...); err != nil {
		return err
	}
	for s := 0; s < n; s++ {
		if len(inBlobs[s]) == 0 {
			continue
		}
		if err := apply(s); err != nil {
			return err
		}
	}

	// Serve gets from the post-apply region.
	var replyReqs []*Request
	for s := 0; s < n; s++ {
		gets := getsBySrc[s]
		if len(gets) == 0 {
			continue
		}
		if s == me {
			for _, g := range gets {
				w.st.ReadInto(g.off, w.gets[g.idx].buf)
			}
			continue
		}
		reply := make([]byte, 0, 16)
		for _, g := range gets {
			hdr := make([]byte, 8)
			binary.LittleEndian.PutUint64(hdr, uint64(g.idx))
			reply = append(reply, hdr...)
			data := make([]byte, g.n)
			w.st.ReadInto(g.off, data)
			reply = append(reply, data...)
		}
		r, err := w.c.Isend(s, winTagGets, reply)
		if err != nil {
			return err
		}
		replyReqs = append(replyReqs, r)
	}
	if _, err := WaitAll(replyReqs...); err != nil {
		return err
	}

	// Land remote get replies.
	for t := 0; t < n; t++ {
		reply := replies[t]
		for pos := 0; pos < len(reply); {
			idx := int(binary.LittleEndian.Uint64(reply[pos:]))
			pos += 8
			buf := w.gets[idx].buf
			copy(buf, reply[pos:pos+len(buf)])
			pos += len(buf)
		}
	}

	for t := range w.pend {
		w.pend[t] = nil
	}
	w.gets = w.gets[:0]
	return w.c.Barrier()
}

// encodeOps serializes one target's recorded operations.
func (w *Win) encodeOps(ops []winOp) []byte {
	if len(ops) == 0 {
		return nil
	}
	sz := 0
	for _, o := range ops {
		sz += 17
		switch o.kind {
		case opPut:
			sz += len(o.data)
		case opAcc:
			sz += 1 + len(o.data)
		case opGet:
			sz += 8
		}
	}
	blob := make([]byte, 0, sz)
	var u [8]byte
	put64 := func(v int) {
		binary.LittleEndian.PutUint64(u[:], uint64(v))
		blob = append(blob, u[:]...)
	}
	for _, o := range ops {
		blob = append(blob, o.kind)
		put64(o.off)
		switch o.kind {
		case opPut:
			put64(len(o.data))
			blob = append(blob, o.data...)
		case opAcc:
			put64(len(o.data))
			blob = append(blob, byte(o.op))
			blob = append(blob, o.data...)
		case opGet:
			gsz := len(w.gets[o.idx].buf)
			put64(gsz)
			put64(o.idx)
		}
	}
	return blob
}
