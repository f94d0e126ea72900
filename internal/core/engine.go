package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// EngineCosts are the engine-level charges of the poll-model (SPARC
// matching) design. Wire, kernel and co-processor time belongs to the
// transport; the engine charges what the main CPU does: matching, bounce
// copies, and per-call bookkeeping.
type EngineCosts struct {
	Match        sim.Duration // per matching attempt (arrival or post)
	CopyBase     sim.Duration // fixed cost of a bounce-buffer copy
	CopyPerByte  sim.Duration // per-byte bounce-to-user copy cost
	SendOverhead sim.Duration // per-send library bookkeeping
	RecvOverhead sim.Duration // per-receive library bookkeeping
}

// Engine is one rank's poll-model MPI engine: the paper's low-latency
// design, where matching runs on the main processor inside MPI calls rather
// than on a communications co-processor. Exactly one proc (the rank's
// process) calls its methods; transports may additionally invoke the
// completion upcalls from scheduler/event context.
type Engine struct {
	rank  int
	size  int
	s     *sim.Scheduler
	tr    Transport
	costs EngineCosts
	acct  *Acct

	match Matcher
	cond  *sim.Cond

	// The request table (see reqtable.go): live requests by slot, the slots
	// free for reissue, released requests awaiting reuse, the creation
	// counter, and how many tabled sends the wire has not taken yet.
	slots   []reqSlot
	vacant  []uint32
	idle    sim.FreeList[Request]
	nextSeq uint64
	unsent  int

	// wins holds the registered one-sided windows by id (see window.go);
	// lazily allocated by WinCreate.
	wins map[int]*WinState

	// Receive-path recycling: pool feeds self-send bounce buffers (and is
	// available to the transport), inFree recycles unexpected-queue nodes,
	// and scratch carries a matched-on-arrival message through
	// deliverMatched without heap-allocating it. scratch reuse is safe
	// because only the rank's own proc runs the arrival path and no
	// transport retains the *InMsg past Accept.
	pool    *BufPool
	inFree  []*InMsg
	scratch InMsg

	// Buffered-send (Bsend) space accounting.
	bufCap  int
	bufUsed int

	// Errors records asynchronous protocol errors (e.g. a ready-mode send
	// arriving with no posted receive), which MPI cannot attach to any
	// particular call at the receiver.
	Errors []error

	// fatal is a transport-fatal error (a dead link): once set, every
	// pending request has been completed with it and every subsequent
	// operation fails fast instead of parking forever.
	fatal error

	// Fault-tolerance state (see ft.go): peers declared dead with their
	// death reasons, in detection order; how many of those deaths the
	// process has acknowledged (FailureAck); revoked communicator context
	// ids; and window lock grants deferred out of event context.
	dead      map[int]error
	deadOrder []int
	ackedDead int
	revoked   map[int]bool
	defGrants []deferredGrant

	// Trace, when set, receives a timeline event per protocol action.
	Trace *trace.Log
}

// SetTrace attaches a timeline log (the profiling interface).
func (e *Engine) SetTrace(l *trace.Log) { e.Trace = l }

// TraceLog returns the attached timeline log (nil when tracing is off).
func (e *Engine) TraceLog() *trace.Log { return e.Trace }

// trc records an event if tracing is enabled.
func (e *Engine) trc(kind trace.Kind, peer, tag, bytes int, note string) {
	if e.Trace == nil {
		return
	}
	e.Trace.Add(trace.Event{T: e.s.Now(), Rank: e.rank, Kind: kind, Peer: peer, Tag: tag, Bytes: bytes, Note: note})
}

// NewEngine returns an engine for the given rank of a size-rank job.
func NewEngine(s *sim.Scheduler, rank, size int, costs EngineCosts) *Engine {
	acct := NewAcct()
	return &Engine{
		rank:  rank,
		size:  size,
		s:     s,
		costs: costs,
		acct:  acct,
		cond:  sim.NewCond(s),
		pool:  NewBufPool(acct),
	}
}

// Pool exposes the engine's buffer pool so its transport can draw bounce
// buffers and frames from the same recycled storage.
func (e *Engine) Pool() *BufPool { return e.pool }

// Bounce copies an eager or rendezvous payload into delivery storage for a
// transport whose receiver reads the sender's copy, on every kernel by one
// rule (see BufPool): the buffer is drawn from this (the sending) engine's
// pool on the sender's lane, crosses to dst's lane with the delivery, and
// goes back to the returned pool — dst's — after the copy-out there.
func (e *Engine) Bounce(dst *Engine, payload []byte) (data []byte, pool *BufPool) {
	data = e.pool.Get(len(payload))
	copy(data, payload)
	return data, dst.pool
}

// newInMsg draws an unexpected-queue node from the freelist.
func (e *Engine) newInMsg() *InMsg {
	if n := len(e.inFree); n > 0 {
		m := e.inFree[n-1]
		e.inFree[n-1] = nil
		e.inFree = e.inFree[:n-1]
		return m
	}
	return &InMsg{}
}

// freeInMsg recycles a node the matcher handed back; callers must be done
// with every field (the bounce payload has been recycled separately).
func (e *Engine) freeInMsg(m *InMsg) {
	if m == nil || m == &e.scratch {
		return
	}
	*m = InMsg{}
	e.inFree = append(e.inFree, m)
}

// SetTransport attaches the platform transport; must be called before use.
func (e *Engine) SetTransport(tr Transport) { e.tr = tr }

// MaxEager reports the transport's eager/rendezvous crossover in bytes.
func (e *Engine) MaxEager() int { return e.tr.MaxEager() }

// Transport reports the attached transport.
func (e *Engine) Transport() Transport { return e.tr }

// Rank reports this engine's rank.
func (e *Engine) Rank() int { return e.rank }

// Size reports the job size.
func (e *Engine) Size() int { return e.size }

// Acct reports the engine's cost account.
func (e *Engine) Acct() *Acct { return e.acct }

// Scheduler reports the simulation scheduler.
func (e *Engine) Scheduler() *sim.Scheduler { return e.s }

// BufferAttach provides n bytes of buffered-send space (MPI_Buffer_attach).
func (e *Engine) BufferAttach(n int) { e.bufCap = n }

// BufferDetach removes the buffered-send buffer, returning its size.
func (e *Engine) BufferDetach() int {
	n := e.bufCap
	e.bufCap = 0
	return n
}

// ---------------------------------------------------------------- sends --

// Isend starts a nonblocking send of data to dst with the given tag,
// communicator context and mode. The returned request completes according
// to the mode's semantics.
func (e *Engine) Isend(p *sim.Proc, dst, tag, ctx int, mode Mode, data []byte) (*Request, error) {
	if e.fatal != nil {
		return nil, e.fatal
	}
	if dst < 0 || dst >= e.size {
		return nil, Errorf(ErrInternal, "send to invalid rank %d (size %d)", dst, e.size)
	}
	if err := e.ftSendCheck(dst, ctx); err != nil {
		return nil, err
	}
	e.acct.Charge(p, CostOverhead, e.costs.SendOverhead)
	e.acct.Incr("send", 1)
	e.trc(trace.SendStart, dst, tag, len(data), mode.String())
	need := len(data)
	if mode == ModeBuffered && dst != e.rank && e.bufUsed+need > e.bufCap {
		return nil, Errorf(ErrBuffer, "buffered send of %d bytes exceeds attached buffer (%d of %d used)", need, e.bufUsed, e.bufCap)
	}
	req, err := e.newRequest()
	if err != nil {
		return nil, err
	}
	req.Env = Envelope{Source: e.rank, Dest: dst, Tag: tag, Context: ctx, Count: need, Mode: mode, SendID: req.ID}
	req.Buf = data
	e.unsent++

	if dst == e.rank {
		return e.selfSend(p, req, mode, data)
	}

	switch mode {
	case ModeSync:
		req.ackWanted = true
		e.tr.Send(p, req)
	case ModeBuffered:
		e.bufUsed += need
		// Copy into the attached buffer so the caller's storage is free to
		// reuse immediately; transmission proceeds in the background.
		stable := make([]byte, need)
		copy(stable, data)
		req.Buf = stable
		e.acct.Charge(p, CostCopy, e.costs.CopyBase+sim.Duration(need)*e.costs.CopyPerByte)
		req.buffered = true
		e.tr.Send(p, req)
		req.complete(Status{Source: dst, Tag: tag, Count: need}, nil)
	default: // standard and ready
		e.tr.Send(p, req)
	}
	req.sendMaybeComplete()
	return req, nil
}

// selfSend delivers a message to this rank without touching the transport:
// a memory copy through the matcher. All modes are locally complete except
// synchronous, which still requires the matching receive.
func (e *Engine) selfSend(p *sim.Proc, req *Request, mode Mode, data []byte) (*Request, error) {
	stable := e.pool.Get(len(data))
	copy(stable, data)
	e.acct.Charge(p, CostCopy, e.costs.CopyBase+sim.Duration(len(data))*e.costs.CopyPerByte)
	e.markSent(req)
	if mode == ModeSync {
		req.ackWanted = true
	}
	e.arrive(p, InMsg{Env: req.Env, Data: stable, Pool: e.pool}, "self")
	req.sendMaybeComplete()
	e.retire(req)
	return req, nil
}

// --------------------------------------------------------------- receives --

// Irecv posts a nonblocking receive into buf matching (src, tag, ctx);
// src may be AnySource and tag may be AnyTag.
func (e *Engine) Irecv(p *sim.Proc, src, tag, ctx int, buf []byte) (*Request, error) {
	if e.fatal != nil {
		return nil, e.fatal
	}
	if src != AnySource && (src < 0 || src >= e.size) {
		return nil, Errorf(ErrInternal, "receive from invalid rank %d (size %d)", src, e.size)
	}
	if err := e.ftRecvCheck(src, ctx); err != nil {
		return nil, err
	}
	// Drain arrivals first so the unexpected queue reflects true arrival
	// order before this receive is considered (and so a ready-mode send
	// that already arrived is correctly flagged as unmatched-at-arrival).
	e.Progress(p)
	// The drain may have delivered a revoke or death notice; re-check so
	// the receive cannot post onto a context that just died.
	if err := e.ftRecvCheck(src, ctx); err != nil {
		return nil, err
	}
	req, err := e.newRequest()
	if err != nil {
		return nil, err
	}
	req.IsRecv, req.Env, req.Buf = true, Envelope{Source: src, Tag: tag, Context: ctx}, buf
	e.acct.Charge(p, CostOverhead, e.costs.RecvOverhead)
	e.acct.Charge(p, CostMatch, e.costs.Match)
	e.acct.Incr("recv", 1)
	e.trc(trace.RecvPost, src, tag, len(buf), "")

	if msg := e.match.PostRecv(req); msg != nil {
		e.deliverMatched(p, msg, req)
		e.freeInMsg(msg)
	} else {
		e.acct.SetMax("match.posted-max", int64(e.match.PostedLen()))
		// Nothing matched on post: a rendezvous-sized receive with a fully
		// specific pattern is advertised back to its sender so a matching
		// send can skip the RTS/CTS round trip and write the payload
		// directly (the RDMA-write rendezvous; see RecvAdvertiser).
		if ra, ok := e.tr.(RecvAdvertiser); ok &&
			src != AnySource && src != e.rank && tag != AnyTag && len(buf) > e.tr.MaxEager() {
			ra.AdvertiseRecv(p, req)
		}
	}
	return req, nil
}

// deliverMatched finishes the match of an in-queue message with receive req:
// eager payloads are copied out of bounce space (and the space released);
// rendezvous messages are accepted so the transport can move the payload.
func (e *Engine) deliverMatched(p *sim.Proc, msg *InMsg, req *Request) {
	req.matched = true
	req.matchedSrc = msg.Env.Source
	e.trc(trace.Match, msg.Env.Source, msg.Env.Tag, msg.Env.Count, "")
	if msg.Rndv {
		e.tr.Accept(p, msg, req)
		return
	}
	n := len(msg.Data)
	st := Status{Source: msg.Env.Source, Tag: msg.Env.Tag, Count: n}
	var err error
	if n > len(req.Buf) {
		n = len(req.Buf)
		st.Count = n
		err = Errorf(ErrTruncate, "message of %d bytes truncated to %d-byte receive buffer", len(msg.Data), len(req.Buf))
	}
	copy(req.Buf[:n], msg.Data[:n])
	e.acct.Charge(p, CostCopy, e.costs.CopyBase+sim.Duration(n)*e.costs.CopyPerByte)
	if msg.Env.Source == e.rank {
		// Self-message: no transport resources to release; a synchronous
		// self-send acknowledges directly.
		if msg.Env.Mode == ModeSync {
			if sreq := e.resolve(msg.Env.SendID); sreq != nil {
				sreq.acked = true
				sreq.sendMaybeComplete()
				e.retire(sreq)
			}
		}
	} else {
		e.tr.Release(p, msg.Env.Source, len(msg.Data))
		if msg.Env.Mode == ModeSync {
			e.tr.Control(p, msg.Env.Source, PktSyncAck, msg.Env)
		}
	}
	if msg.Pool != nil {
		// The bounce buffer has been copied out; recycle it. No virtual
		// time is charged — pooling is a host-side optimization.
		msg.Pool.Put(msg.Data)
		msg.Data, msg.Pool = nil, nil
	}
	req.complete(st, err)
	e.retire(req)
	e.trc(trace.RecvDone, st.Source, st.Tag, st.Count, "")
	e.cond.Broadcast()
}

// ----------------------------------------------------------------- progress --

// pollOnce surfaces and handles at most one transport packet, reporting
// whether one was processed.
func (e *Engine) pollOnce(p *sim.Proc) bool {
	pkt := e.tr.Poll(p)
	if pkt == nil {
		return false
	}
	e.handle(p, pkt)
	return true
}

// Progress drains all currently pending arrivals. It is invoked by every
// blocking call and by Test/Iprobe — the poll model performs matching work
// only inside MPI calls, which is precisely the latency/background-progress
// trade the paper studies.
func (e *Engine) Progress(p *sim.Proc) {
	e.flushDeferredGrants(p)
	for e.pollOnce(p) {
	}
}

func (e *Engine) handle(p *sim.Proc, pkt *Packet) {
	switch pkt.Kind {
	case PktEager:
		e.arrive(p, InMsg{Env: pkt.Env, Data: pkt.Data, Pool: pkt.Pool}, "eager")
	case PktRTS:
		e.arrive(p, InMsg{Env: pkt.Env, Rndv: true}, "rts")
	case PktCTS:
		req := e.resolve(pkt.ReqID)
		if req == nil {
			// Under fault tolerance a CTS may race a peer death or revoke
			// that already failed and retired the send; only an unexplained
			// orphan is a protocol error.
			if !e.ftActive() {
				e.Errors = append(e.Errors, Errorf(ErrInternal, "CTS for unknown send request %d", pkt.ReqID))
			}
			return
		}
		// The payload's SendDone completes and retires the send: req may be
		// released by the time SendPayload returns.
		req.acked = true
		e.tr.SendPayload(p, req, pkt)
		e.cond.Broadcast()
	case PktSyncAck:
		e.SendAcked(pkt.ReqID)
	case PktData:
		// Stream transports place the payload into the posted buffer before
		// surfacing PktData; completion happens here so the copy/kernel
		// charges land on the receiving proc.
		req := e.resolve(pkt.ReqID)
		if req == nil {
			if pkt.Pool != nil && pkt.Data != nil {
				pkt.Pool.Put(pkt.Data)
			}
			if !e.ftActive() {
				e.Errors = append(e.Errors, Errorf(ErrInternal, "payload for unknown receive request %d", pkt.ReqID))
			}
			return
		}
		if pkt.Data != nil {
			n := len(pkt.Data)
			if n > len(req.Buf) {
				n = len(req.Buf)
			}
			copy(req.Buf[:n], pkt.Data[:n])
			if pkt.Pool != nil {
				pkt.Pool.Put(pkt.Data)
				pkt.Data = nil
			}
		}
		e.RecvDataDone(req, pkt.Env)
	case PktRMALock:
		e.winLockMsg(p, pkt.Env)
	case PktRMAUnlock:
		e.winUnlockMsg(p, pkt.Env)
	case PktRMAGrant:
		e.winGrantMsg(pkt.Env)
	case PktRevoke:
		e.revokeMsg(p, pkt.Env)
	default:
		e.Errors = append(e.Errors, Errorf(ErrInternal, "unexpected packet kind %v", pkt.Kind))
	}
}

// arrive matches a message arriving at this rank — an eager payload, a
// rendezvous announcement or a self-send — against the posted receives:
// matched, it is delivered through the reusable scratch node so the hot path
// performs no allocation; otherwise it queues as unexpected.
func (e *Engine) arrive(p *sim.Proc, msg InMsg, note string) {
	env := msg.Env
	e.acct.Charge(p, CostMatch, e.costs.Match)
	e.trc(trace.Arrive, env.Source, env.Tag, env.Count, note)
	if e.revoked[env.Context] {
		// Stale traffic on a revoked communicator: drop it. An eager payload
		// returns its bounce space (the sender may be alive and reuse the
		// pair's credits on another communicator); a rendezvous sender's
		// request was already failed by its own revoke.
		if !msg.Rndv && env.Source != e.rank {
			e.tr.Release(p, env.Source, len(msg.Data))
		}
		if msg.Pool != nil {
			msg.Pool.Put(msg.Data)
		}
		return
	}
	if req := e.match.Arrive(env); req != nil {
		e.scratch = msg
		e.deliverMatched(p, &e.scratch, req)
		return
	}
	if env.Mode == ModeReady {
		e.Errors = append(e.Errors, Errorf(ErrReady, "ready-mode send from rank %d (tag %d) arrived before a matching receive was posted", env.Source, env.Tag))
	}
	m := e.newInMsg()
	*m = msg
	e.match.AddUnexpected(m)
	e.acct.SetMax("match.unexpected-max", int64(e.match.UnexpectedLen()))
}

// RecvDataDone completes req once its rendezvous payload has fully landed
// in req.Buf: from the PktData handler, or from event context (e.g. on DMA
// completion).
func (e *Engine) RecvDataDone(req *Request, env Envelope) {
	n := env.Count
	st := Status{Source: env.Source, Tag: env.Tag, Count: n}
	var err error
	if n > len(req.Buf) {
		st.Count = len(req.Buf)
		err = Errorf(ErrTruncate, "message of %d bytes truncated to %d-byte receive buffer", n, len(req.Buf))
	}
	req.complete(st, err)
	e.retire(req)
	e.trc(trace.RecvDone, st.Source, st.Tag, st.Count, "rndv")
	e.cond.Broadcast()
}

// ------------------------------------------------- transport upcalls --

// SendDone marks req's local transmission complete. Callable from event
// context (no time is charged).
func (e *Engine) SendDone(req *Request) {
	e.markSent(req)
	e.trc(trace.SendDone, req.Env.Dest, req.Env.Tag, req.Env.Count, "")
	if req.buffered {
		e.bufUsed -= len(req.Buf)
		if e.bufUsed < 0 {
			e.bufUsed = 0
		}
	}
	req.sendMaybeComplete()
	e.retire(req)
	e.cond.Broadcast()
}

// SendAcked marks the send request named name acknowledged — a rendezvous
// CTS consumed by the platform (the Meiko Elan handles CTS without the
// engine) or a synchronous-mode ack — and returns it; nil when the name is
// stale (the send already completed, or a fault failed it). Callable from
// event context.
func (e *Engine) SendAcked(name int64) *Request {
	req := e.resolve(name)
	if req != nil {
		req.acked = true
		req.sendMaybeComplete()
		e.retire(req)
		e.cond.Broadcast()
	}
	return req
}

// Wake nudges procs blocked in Wait/Probe to re-poll; transports call it on
// packet arrival. Callable from event context.
func (e *Engine) Wake() { e.cond.Broadcast() }

// Fatal declares the transport dead: err completes every pending request
// (so blocked Wait/Test callers observe the failure instead of spinning
// forever) and fails all subsequent operations. The first fatal error
// wins; later ones are ignored. Callable from event context.
func (e *Engine) Fatal(err error) {
	if e.fatal != nil {
		return
	}
	e.fatal = err
	e.Errors = append(e.Errors, err)
	for _, s := range e.slots {
		if r := s.req; r != nil {
			r.complete(Status{}, err)
			e.untable(r)
		}
	}
	e.cond.Broadcast()
	// Transports park procs on conditions of their own (the CS/2
	// hardware-broadcast slot wait); give them a chance to wake those so
	// a killed process fails out instead of sleeping forever.
	if fn, ok := e.tr.(interface{ FatalWake() }); ok {
		fn.FatalWake()
	}
}

// FatalErr reports the transport-fatal error, if any.
func (e *Engine) FatalErr() error { return e.fatal }

// -------------------------------------------------------- completion ops --

// Wait blocks until r completes, making progress while waiting, and
// consumes r.
func (e *Engine) Wait(p *sim.Proc, r *Request) (Status, error) {
	if err := e.stale(r); err != nil {
		return Status{}, err
	}
	for !r.Done() {
		e.Progress(p)
		if r.Done() {
			break
		}
		if e.fatal != nil {
			r.complete(Status{}, e.fatal)
			break
		}
		e.cond.Wait(p)
	}
	return e.consume(r)
}

// Test makes progress and reports whether r has completed; a Test that
// reports done consumes r.
func (e *Engine) Test(p *sim.Proc, r *Request) (Status, bool, error) {
	if err := e.stale(r); err != nil {
		return Status{}, false, err
	}
	e.Progress(p)
	if !r.Done() {
		return Status{}, false, nil
	}
	st, err := e.consume(r)
	return st, true, err
}

// Cancel cancels a posted receive that has not yet matched, reporting
// whether it did; a successful Cancel consumes r. Cancelling sends is not
// supported (as in most MPI implementations, it is best avoided; the paper
// does not use it).
func (e *Engine) Cancel(p *sim.Proc, r *Request) (bool, error) {
	if err := e.stale(r); err != nil {
		return false, err
	}
	if !r.IsRecv {
		return false, Errorf(ErrInternal, "cancel of send requests is not supported")
	}
	if r.Done() || !e.match.CancelRecv(r) {
		return false, nil
	}
	r.complete(Status{}, nil)
	e.consume(r)
	return true, nil
}

// Probe blocks until a message matching (src, tag, ctx) is queued, and
// reports its envelope without receiving it. Like MPI_Probe, it observes
// only the unexpected queue: a message already matched to a posted
// receive is in delivery and deliberately invisible here (see
// Matcher.Probe).
func (e *Engine) Probe(p *sim.Proc, src, tag, ctx int) (Status, error) {
	for {
		st, ok, err := e.Iprobe(p, src, tag, ctx)
		if err != nil {
			return st, err
		}
		if ok {
			return st, nil
		}
		if e.fatal != nil {
			return Status{}, e.fatal
		}
		if ferr := e.ftRecvCheck(src, ctx); ferr != nil {
			return Status{}, ferr
		}
		if e.tr.Pending() {
			// An arrival raced in while Iprobe charged time; re-poll
			// instead of parking (parking here would miss its wakeup).
			continue
		}
		e.cond.Wait(p)
	}
}

// Iprobe makes progress and reports whether a matching message is queued
// in the unexpected queue (posted-receive state is invisible, as for
// Probe). The matching charge is paid before draining arrivals: time consumed
// after the drain would open a lost-wakeup window for callers that park
// when the probe fails.
func (e *Engine) Iprobe(p *sim.Proc, src, tag, ctx int) (Status, bool, error) {
	e.acct.Charge(p, CostMatch, e.costs.Match)
	e.Progress(p)
	if msg := e.match.Probe(src, tag, ctx); msg != nil {
		return Status{Source: msg.Env.Source, Tag: msg.Env.Tag, Count: msg.Env.Count}, true, nil
	}
	return Status{}, false, nil
}

// Finalize implements Endpoint: poll until every locally-initiated send
// has been handed to the wire (a buffered rendezvous send needs this
// process to answer its CTS).
func (e *Engine) Finalize(p *sim.Proc) {
	for {
		e.Progress(p)
		if e.fatal != nil {
			return // a dead link never finishes handing off sends
		}
		if e.unsent == 0 {
			return
		}
		e.cond.Wait(p)
	}
}

// ProtocolErrors reports asynchronous protocol errors recorded at this
// rank (e.g. ready-mode violations), for post-run inspection.
func (e *Engine) ProtocolErrors() []error { return e.Errors }

// String identifies the engine in traces.
func (e *Engine) String() string { return fmt.Sprintf("engine[rank %d]", e.rank) }
