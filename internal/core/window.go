package core

import "repro/internal/sim"

// WinState is one rank's side of an MPI-2 window: the locally exposed
// memory region plus the origin-side epoch counter and the target-side
// passive-target lock manager. The mpi layer creates one per rank per
// window (same id on every rank) and drives it through the Engine's Win*
// methods; transports implementing RemoteMemory reach the target's state
// via Engine.Win to apply operations directly, bypassing the matcher.
type WinState struct {
	// ID is the window identifier, agreed collectively at creation (the
	// mpi layer allocates it from the same space as communicator
	// contexts, so window traffic can never collide with message tags).
	ID int
	// Mem is the exposed region.
	Mem []byte

	// outstanding counts this rank's issued-but-incomplete one-sided
	// operations (as origin). WinFence drains it to zero.
	outstanding int

	// Target-side passive-target lock manager: current holders (shared
	// readers or one exclusive writer) and the FIFO wait queue.
	lockExcl    bool
	lockHolders map[int]bool
	lockQ       []lockWaiter

	// Origin-side grants held, by target rank.
	granted map[int]bool
}

type lockWaiter struct {
	origin int
	excl   bool
}

// ApplyAccumulate combines data into the region at off with op (RMAReplace
// stores it); called by RemoteMemory transports in the target's delivery
// context. Bounds were validated at the origin.
func (w *WinState) ApplyAccumulate(off int, data []byte, op RMAOp) {
	op.apply(w.Mem[off:off+len(data)], data)
}

// ReadInto copies len(buf) bytes at off into buf (the Get service side).
func (w *WinState) ReadInto(off int, buf []byte) {
	copy(buf, w.Mem[off:off+len(buf)])
}

// grantable reports whether origin's request can be granted now: the FIFO
// queue is empty (no starvation of queued waiters) and the lock is free or
// shared-compatible.
func (w *WinState) grantable(excl bool) bool {
	if len(w.lockQ) > 0 {
		return false
	}
	if len(w.lockHolders) == 0 {
		return true
	}
	return !excl && !w.lockExcl
}

// acquire records origin as a holder.
func (w *WinState) acquire(origin int, excl bool) {
	if len(w.lockHolders) == 0 {
		w.lockExcl = excl
	}
	w.lockHolders[origin] = true
}

// ------------------------------------------------------------ engine side --

// SupportsRMA reports whether this engine's transport implements the
// RemoteMemory capability (native one-sided operations). Without it the
// mpi layer emulates windows over matched sends at fence time.
func (e *Engine) SupportsRMA() bool {
	_, ok := e.tr.(RemoteMemory)
	return ok
}

// WinCreate registers a window of size bytes under id and returns its
// state. The id must be unused on this engine.
func (e *Engine) WinCreate(id, size int) (*WinState, error) {
	if e.fatal != nil {
		return nil, e.fatal
	}
	if e.wins == nil {
		e.wins = make(map[int]*WinState)
	}
	if e.wins[id] != nil {
		return nil, Errorf(ErrInternal, "window id %d already exists", id)
	}
	w := &WinState{
		ID:          id,
		Mem:         make([]byte, size),
		lockHolders: make(map[int]bool),
		granted:     make(map[int]bool),
	}
	e.wins[id] = w
	return w, nil
}

// WinFree unregisters window id.
func (e *Engine) WinFree(id int) {
	delete(e.wins, id)
}

// Win reports the window registered under id (nil if none). Transports
// use it to locate the target region when applying remote operations.
func (e *Engine) Win(id int) *WinState { return e.wins[id] }

// winFor looks up a window for an origin-side operation.
func (e *Engine) winFor(id int) (*WinState, error) {
	w := e.wins[id]
	if w == nil {
		return nil, Errorf(ErrInternal, "no window with id %d", id)
	}
	return w, nil
}

// rmaDone builds the completion callback decrementing w's outstanding
// count. It may fire from event context (a DMA landing), so it wakes any
// proc parked in WinFence.
func (e *Engine) rmaDone(w *WinState) func() {
	return func() {
		w.outstanding--
		e.cond.Broadcast()
	}
}

// RMAPut issues a one-sided put of data into dst's window id at off.
// Local completion is deferred to WinFence (or WinUnlock), per MPI RMA
// semantics; data must stay unmodified until then.
func (e *Engine) RMAPut(p *sim.Proc, dst, id, off int, data []byte) error {
	return e.rmaWrite(p, dst, id, off, data, RMAReplace, ctrRMAPut)
}

// RMAAccumulate combines data into dst's window id at off with op.
func (e *Engine) RMAAccumulate(p *sim.Proc, dst, id, off int, data []byte, op RMAOp) error {
	return e.rmaWrite(p, dst, id, off, data, op, ctrRMAAcc)
}

// rmaWrite is the body a put and an accumulate share: a put is a write
// with RMAReplace, which every payload length is valid for.
func (e *Engine) rmaWrite(p *sim.Proc, dst, id, off int, data []byte, op RMAOp, counter Ctr) error {
	w, err := e.rmaStart(p, dst, id, counter)
	if err != nil {
		return err
	}
	if !op.valid(len(data)) {
		return Errorf(ErrInternal, "%d-byte accumulate payload not a multiple of the %s element size", len(data), op)
	}
	if dst == e.rank {
		w.ApplyAccumulate(off, data, op)
		e.acct.Spend(p, sim.Copy, e.costs.CopyBase+sim.Duration(len(data))*e.costs.CopyPerByte)
		return nil
	}
	w.outstanding++
	e.tr.(RemoteMemory).RMAWrite(p, dst, id, off, data, op, e.rmaDone(w))
	return nil
}

// RMAGet issues a one-sided read of len(buf) bytes from dst's window id
// at off into buf; buf is valid only after the closing WinFence/WinUnlock.
func (e *Engine) RMAGet(p *sim.Proc, dst, id, off int, buf []byte) error {
	w, err := e.rmaStart(p, dst, id, ctrRMAGet)
	if err != nil {
		return err
	}
	if dst == e.rank {
		w.ReadInto(off, buf)
		e.acct.Spend(p, sim.Copy, e.costs.CopyBase+sim.Duration(len(buf))*e.costs.CopyPerByte)
		return nil
	}
	w.outstanding++
	e.tr.(RemoteMemory).RMARead(p, dst, id, off, buf, e.rmaDone(w))
	return nil
}

// rmaStart is the common origin-side prologue: fatal check, window and
// capability lookup, bookkeeping charge.
func (e *Engine) rmaStart(p *sim.Proc, dst, id int, counter Ctr) (*WinState, error) {
	if e.fatal != nil {
		return nil, e.fatal
	}
	if _, ok := e.tr.(RemoteMemory); !ok {
		return nil, Errorf(ErrInternal, "transport has no remote-memory capability")
	}
	if dst < 0 || dst >= e.size {
		return nil, Errorf(ErrInternal, "one-sided op to invalid rank %d (size %d)", dst, e.size)
	}
	if err := e.deadErr(dst); err != nil {
		return nil, err
	}
	w, err := e.winFor(id)
	if err != nil {
		return nil, err
	}
	e.acct.Spend(p, sim.Overhead, e.costs.SendOverhead)
	e.acct.Add(counter, 1)
	return w, nil
}

// WinFence drains this rank's outstanding one-sided operations on window
// id, making progress while waiting (incoming operations and their acks
// are processed inside Progress, exactly like two-sided completion). A
// dead link completes the fence with the typed link error rather than
// parking forever. The mpi layer follows the drain with a barrier to
// close the epoch collectively.
func (e *Engine) WinFence(p *sim.Proc, id int) error {
	w, err := e.winFor(id)
	if err != nil {
		return err
	}
	e.acct.Add(ctrRMAFence, 1)
	for w.outstanding > 0 {
		e.Progress(p)
		if w.outstanding == 0 {
			break
		}
		if e.fatal != nil {
			return e.fatal
		}
		e.Park(p)
	}
	if e.fatal != nil {
		return e.fatal
	}
	return nil
}

// WinLock acquires a passive-target lock on dst's window id (excl for
// MPI_LOCK_EXCLUSIVE, else shared). The request travels as a control
// packet; the target's lock manager grants in FIFO order — under the poll
// model the grant arrives once the target enters any MPI call, the same
// progress trade as two-sided traffic.
func (e *Engine) WinLock(p *sim.Proc, dst, id int, excl bool) error {
	w, err := e.rmaStart(p, dst, id, ctrRMALock)
	if err != nil {
		return err
	}
	if dst == e.rank {
		if w.grantable(excl) {
			w.acquire(e.rank, excl)
			w.granted[e.rank] = true
			return nil
		}
		w.lockQ = append(w.lockQ, lockWaiter{origin: e.rank, excl: excl})
	} else {
		count := 0
		if excl {
			count = 1
		}
		e.control(p, dst, PktRMALock, Envelope{Source: e.rank, Dest: dst, Tag: id, Count: count})
	}
	for !w.granted[dst] {
		e.Progress(p)
		if w.granted[dst] {
			break
		}
		if e.fatal != nil {
			return e.fatal
		}
		// The grant can never arrive from a dead target; fail instead of
		// parking forever.
		if err := e.deadErr(dst); err != nil {
			return err
		}
		e.Park(p)
	}
	return nil
}

// WinUnlock completes all outstanding operations on window id (MPI's
// unlock guarantee covers remote completion) and releases the lock held
// on dst.
func (e *Engine) WinUnlock(p *sim.Proc, dst, id int) error {
	w, err := e.winFor(id)
	if err != nil {
		return err
	}
	if !w.granted[dst] {
		return Errorf(ErrInternal, "unlock of window %d at rank %d without holding its lock", id, dst)
	}
	// Drain every outstanding op: coarser than per-target tracking but
	// correct — remote completion of the ops issued under this lock is
	// what MPI_Win_unlock promises.
	if err := e.WinFence(p, id); err != nil {
		return err
	}
	delete(w.granted, dst)
	if dst == e.rank {
		e.winRelease(p, w, e.rank)
		return nil
	}
	e.control(p, dst, PktRMAUnlock, Envelope{Source: e.rank, Dest: dst, Tag: id})
	return nil
}

// winLockMsg handles an arriving PktRMALock at the target.
func (e *Engine) winLockMsg(p *sim.Proc, env Envelope) {
	w := e.wins[env.Tag]
	if w == nil {
		e.Errors = append(e.Errors, Errorf(ErrInternal, "lock request from rank %d for unknown window %d", env.Source, env.Tag))
		return
	}
	excl := env.Count == 1
	if w.grantable(excl) {
		w.acquire(env.Source, excl)
		e.winGrant(p, w, env.Source)
		return
	}
	w.lockQ = append(w.lockQ, lockWaiter{origin: env.Source, excl: excl})
}

// winUnlockMsg handles an arriving PktRMAUnlock at the target.
func (e *Engine) winUnlockMsg(p *sim.Proc, env Envelope) {
	w := e.wins[env.Tag]
	if w == nil {
		return
	}
	e.winRelease(p, w, env.Source)
}

// winRelease drops origin from the holder set and grants queued waiters
// that became compatible, in FIFO order.
func (e *Engine) winRelease(p *sim.Proc, w *WinState, origin int) {
	delete(w.lockHolders, origin)
	for len(w.lockQ) > 0 {
		next := w.lockQ[0]
		if len(w.lockHolders) > 0 && (next.excl || w.lockExcl) {
			break
		}
		w.lockQ = w.lockQ[1:]
		w.acquire(next.origin, next.excl)
		e.winGrant(p, w, next.origin)
	}
}

// winGrant notifies origin that it now holds w's lock. With a nil proc
// (event context — a peer death released the lock) the remote grant packet
// is deferred to the next Progress call, which has a proc to charge.
func (e *Engine) winGrant(p *sim.Proc, w *WinState, origin int) {
	if origin == e.rank {
		w.granted[e.rank] = true
		e.cond.Broadcast()
		return
	}
	if p == nil {
		e.defGrants = append(e.defGrants, deferredGrant{win: w.ID, origin: origin})
		e.cond.Broadcast()
		return
	}
	e.control(p, origin, PktRMAGrant, Envelope{Source: e.rank, Dest: origin, Tag: w.ID})
}

// winGrantMsg handles an arriving PktRMAGrant at the origin.
func (e *Engine) winGrantMsg(env Envelope) {
	w := e.wins[env.Tag]
	if w == nil {
		return
	}
	w.granted[env.Source] = true
	e.cond.Broadcast()
}
