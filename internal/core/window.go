package core

import "repro/internal/sim"

// RemoteMemory is the one-sided capability a Transport may implement
// alongside matched delivery: direct placement into a registered window
// region on the target rank, bypassing the matching engine entirely. The
// Meiko maps it to Elan remote transactions and DMA, the store-based
// fabric (mem, cluster/shm) to direct stores across the medium; socket
// transports, which have no remote-write primitive, leave it unimplemented
// and the mpi layer falls back to a deferred-at-fence emulation over
// matched sends.
//
// RMAWrite runs in the origin proc's context. done MUST fire exactly once,
// in the origin rank's scheduler (lane) context, and only after the bytes
// are applied at the target. The engine's fence machinery counts on that
// ordering: outstanding-operation draining plus a barrier is what makes a
// fence epoch.
//
// Implementations locate the target region via Engine.Win on the target
// rank's engine; origins validate offsets before issuing, so a
// transport-side out-of-range store is an invariant violation (panic),
// not a user error.
type RemoteMemory interface {
	// RMAWrite stores data into target dst's window win at byte offset off.
	RMAWrite(p *sim.Proc, dst, win, off int, data []byte, done func())
}

// window is one rank's side of an MPI-2 window: the locally exposed
// region plus the origin-side count of operations in flight. The mpi layer
// registers one per rank per window under an id agreed collectively (it
// allocates ids from the same space as communicator contexts, so window
// traffic can never collide with message tags) and drives it through the
// Engine's Win* methods; transports implementing RemoteMemory reach the
// target's region via Engine.Win to store directly, bypassing the matcher.
type window struct {
	mem []byte
	// outstanding counts this rank's issued-but-incomplete one-sided
	// operations (as origin). WinFence drains it to zero.
	outstanding int
}

// rmaState is an engine's one-sided side: the wire's RemoteMemory (nil
// without one), resolved once, and the registered windows by id.
type rmaState struct {
	rm   RemoteMemory
	wins map[int]*window
}

// remote reports the engine's one-sided side, built at its first use.
func (e *Engine) remote() *rmaState {
	if e.rma == nil {
		rm, _ := e.tr.(RemoteMemory)
		e.rma = &rmaState{rm: rm, wins: map[int]*window{}}
	}
	return e.rma
}

// SupportsRMA reports whether this engine's transport implements the
// RemoteMemory capability (native one-sided operations). Without it the
// mpi layer emulates windows over matched sends at fence time.
func (e *Engine) SupportsRMA() bool { return e.remote().rm != nil }

// WinCreate registers a window of size bytes under id and returns its
// region. The id must be unused on this engine.
func (e *Engine) WinCreate(id, size int) ([]byte, error) {
	if e.fatal != nil {
		return nil, e.fatal
	}
	wins := e.remote().wins
	if wins[id] != nil {
		return nil, Errorf(ErrInternal, "window id %d already exists", id)
	}
	w := &window{mem: make([]byte, size)}
	wins[id] = w
	return w.mem, nil
}

// WinFree unregisters window id.
func (e *Engine) WinFree(id int) {
	delete(e.remote().wins, id)
}

// Win reports the region of the window registered under id. Transports
// use it to locate the target region when applying remote operations.
func (e *Engine) Win(id int) []byte { return e.remote().wins[id].mem }

// winFor looks up a window for an origin-side operation.
func (e *Engine) winFor(id int) (*window, error) {
	w := e.remote().wins[id]
	if w == nil {
		return nil, Errorf(ErrInternal, "no window with id %d", id)
	}
	return w, nil
}

// RMAPut issues a one-sided put of data into dst's window id at off.
// Local completion is deferred to WinFence, per MPI RMA semantics; data
// must stay unmodified until then.
func (e *Engine) RMAPut(p *sim.Proc, dst, id, off int, data []byte) error {
	if e.fatal != nil {
		return e.fatal
	}
	rm := e.remote().rm
	if rm == nil {
		return Errorf(ErrInternal, "transport has no remote-memory capability")
	}
	if dst < 0 || dst >= e.size {
		return Errorf(ErrInternal, "one-sided op to invalid rank %d (size %d)", dst, e.size)
	}
	if err := e.deadErr(dst); err != nil {
		return err
	}
	w, err := e.winFor(id)
	if err != nil {
		return err
	}
	e.acct.Spend(p, sim.Overhead, e.costs.SendOverhead)
	e.acct.Add(ctrRMAPut, 1)
	if dst == e.rank {
		copy(w.mem[off:], data)
		e.acct.Spend(p, sim.Copy, e.costs.CopyBase+sim.Duration(len(data))*e.costs.CopyPerByte)
		return nil
	}
	w.outstanding++
	// done may fire from event context (a DMA landing), so it wakes any
	// proc parked in WinFence.
	rm.RMAWrite(p, dst, id, off, data, func() {
		w.outstanding--
		e.cond.Broadcast()
	})
	return nil
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
