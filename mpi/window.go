package mpi

import (
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/sim"
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
	WinCreate(id, size int) ([]byte, error)
	WinFree(id int)
	RMAPut(p *sim.Proc, dst, id, off int, data []byte) error
	WinFence(p *sim.Proc, id int) error
}

// Win is an MPI-2 one-sided communication window (MPI_Win): a region of
// this rank's memory exposed to Put from every rank of the creating
// communicator, with access epochs delimited by Fence (active target).
//
// On transports with a remote-memory primitive (Meiko Elan transactions
// and DMA, the in-memory fabric, the cluster shared-memory segment) a Put
// maps to a native one-sided transfer that bypasses the message matcher.
// Socket transports have no remote-write primitive, so windows fall back
// to a deferred-at-fence emulation: Puts are recorded at the origin and
// exchanged as matched messages inside the closing Fence, applied in
// source-rank order. Both flavors meet MPI's epoch contract: one-sided
// results are undefined until the epoch closes.
type Win struct {
	c      *Comm // window-private communicator (fresh context pair = window id)
	id     int
	sizes  []int // per-rank region sizes, indexed by comm rank
	native bool

	ne  rmaEndpoint // native path (nil when emulated)
	mem []byte      // this rank's region (both paths)

	// unfenced counts the Puts this rank issued since the last Fence.
	unfenced int
	// Emulated-path epoch state: recorded Puts per target comm rank.
	pend [][]winOp
}

// winOp is one recorded Put awaiting the closing fence.
type winOp struct {
	off  int
	data []byte // payload snapshot
}

// opPut is the one operation kind a fence blob carries.
const opPut byte = 0

// winTagFence tags the fence's operation blobs on the window's private
// context.
const winTagFence = 0

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
		return nil, w.fail(err)
	}
	w.sizes = make([]int, wc.Size())
	for r := range w.sizes {
		w.sizes[r] = int(binary.LittleEndian.Uint64(all[8*r:]))
	}

	if ne, ok := wc.ep.(rmaEndpoint); ok && ne.SupportsRMA() {
		mem, err := ne.WinCreate(w.id, size)
		if err != nil {
			return nil, err
		}
		w.native, w.ne, w.mem = true, ne, mem
	} else {
		w.mem = make([]byte, size)
		w.pend = make([][]winOp, wc.Size())
	}
	// Creation is an epoch boundary: no rank may be targeted before its
	// window exists everywhere.
	return w, w.fail(wc.Barrier())
}

// Bytes exposes this rank's window region. Reading it between an
// operation and the closing Fence observes unspecified intermediate
// state, exactly as MPI leaves it undefined.
func (w *Win) Bytes() []byte { return w.mem }

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
// (MPI_Put). The transfer completes at the closing Fence; until then data
// must stay unmodified and the target contents are undefined.
func (w *Win) Put(dst, off int, data []byte) error {
	if err := w.checkAccess(dst, off, len(data)); err != nil {
		return err
	}
	if w.native {
		wr, err := w.c.worldRank(dst)
		if err != nil {
			return err
		}
		if err := w.ne.RMAPut(w.c.p, wr, w.id, off, data); err != nil {
			return err
		}
	} else {
		snap := make([]byte, len(data))
		copy(snap, data)
		w.pend[dst] = append(w.pend[dst], winOp{off: off, data: snap})
	}
	w.unfenced++
	return nil
}

// Fence closes the current access epoch and opens the next
// (MPI_Win_fence): it is collective, and on return every Put issued by
// any rank in the closing epoch is applied at its target.
func (w *Win) Fence() error {
	w.unfenced = 0
	if w.native {
		if err := w.ne.WinFence(w.c.p, w.id); err != nil {
			return w.fail(err)
		}
		return w.fail(w.c.Barrier())
	}
	return w.fail(w.fenceEmulated())
}

// fail returns err, first revoking the window's private communicator when
// err is a peer's death seen by a live rank: a collective fails only at the
// ranks whose partners died, and the others would wait in it for good. The
// revoke fails their epoch too (ErrRevoked), and nobody else can issue it,
// since the communicator is the window's own.
func (w *Win) fail(err error) error {
	if IsPeerDown(err) && !w.c.Dead() {
		w.c.Revoke()
	}
	return err
}

// Free collectively releases the window (MPI_Win_free). The caller must
// have closed the last epoch (Fence) first; Free barriers so no rank
// tears its region down while a peer could still target it. A rank that
// left Puts unfenced gets a typed error, on every backend alike: its
// native Puts are drained before the barrier (so none lands in a freed
// region) and its emulated ones are dropped.
func (w *Win) Free() error {
	var unfenced error
	if w.unfenced > 0 {
		unfenced = core.Errorf(core.ErrInternal, "window freed with Puts no Fence closed (%d since the last)", w.unfenced)
		w.unfenced = 0
		if w.native {
			if err := w.ne.WinFence(w.c.p, w.id); err != nil {
				return w.fail(err)
			}
		}
	}
	if err := w.c.Barrier(); err != nil {
		return w.fail(err)
	}
	if w.native {
		w.ne.WinFree(w.id)
	}
	w.mem = nil
	return unfenced
}

// ------------------------------------------------- deferred-at-fence path --
//
// The emulated closing fence runs a deterministic three-step exchange on
// the window's private context:
//
//  1. serialize this epoch's recorded Puts into one blob per target, and
//     swap blob lengths with an alltoall;
//  2. exchange the blobs as matched messages (self-targeted blobs
//     short-circuit locally);
//  3. apply arriving blobs in source-rank order, and barrier.
//
// Applying in source-rank order makes the epoch deterministic: MPI
// declares overlapping same-epoch puts erroneous, so any fixed order is a
// legal serialization.

// fenceEmulated implements Fence over matched sends.
func (w *Win) fenceEmulated() error {
	n := w.c.Size()
	me := w.c.Rank()

	blobs := make([][]byte, n)
	for t := 0; t < n; t++ {
		blobs[t] = encodeOps(w.pend[t])
		w.pend[t] = nil
	}

	lens := make([]byte, 8*n)
	for t := range blobs {
		binary.LittleEndian.PutUint64(lens[8*t:], uint64(len(blobs[t])))
	}
	inLens := make([]byte, 8*n)
	if err := w.c.Alltoall(lens, inLens); err != nil {
		return err
	}

	// Exchange operation blobs.
	var reqs []*Request
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
	// Waiting on our own Irecvs completes them in reqs order; WaitAll
	// above already drained the sends, so only receives remain.
	if _, err := WaitAll(reqs...); err != nil {
		return err
	}

	// Apply in source-rank order. Each op is its kind byte, offset and
	// length (8 bytes each, little-endian), then the payload.
	for s := 0; s < n; s++ {
		blob := inBlobs[s]
		for pos := 0; pos < len(blob); {
			if blob[pos] != opPut {
				return core.Errorf(core.ErrInternal, "corrupt window fence blob from rank %d (op %d)", s, blob[pos])
			}
			off := int(binary.LittleEndian.Uint64(blob[pos+1:]))
			sz := int(binary.LittleEndian.Uint64(blob[pos+9:]))
			pos += 17
			copy(w.mem[off:], blob[pos:pos+sz])
			pos += sz
		}
	}
	return w.c.Barrier()
}

// encodeOps serializes one target's recorded Puts.
func encodeOps(ops []winOp) []byte {
	if len(ops) == 0 {
		return nil
	}
	sz := 0
	for _, o := range ops {
		sz += 17 + len(o.data)
	}
	blob := make([]byte, 0, sz)
	var u [8]byte
	put64 := func(v int) {
		binary.LittleEndian.PutUint64(u[:], uint64(v))
		blob = append(blob, u[:]...)
	}
	for _, o := range ops {
		blob = append(blob, opPut)
		put64(o.off)
		put64(len(o.data))
		blob = append(blob, o.data...)
	}
	return blob
}
