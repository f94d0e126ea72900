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

	// The send side of the protocol (see send): the eager/rendezvous
	// crossover in payload bytes, the wire's flow-control queue (nil when
	// sends never wait), and the sends a credit parsed inside the poll
	// released, which the proc ships where the receive chain stops.
	eager    int
	fc       *SendQueue
	released sim.Queue[*Request]

	// The request table (see reqtable.go): live requests by slot, the slots
	// free for reissue, released requests awaiting reuse, the creation
	// counter, and how many tabled sends the wire has not taken yet.
	slots   []reqSlot
	vacant  []uint32
	idle    sim.FreeList[Request]
	nextSeq uint64
	unsent  int

	// rma is the one-sided side (see window.go), built at first use.
	rma *rmaState

	// Each source's rendezvous payload landing (see landing.go); nil until
	// first use.
	lands []*landing

	// Receive-path recycling: pool feeds self-send bounce buffers (and is
	// available to the transport), inFree recycles unexpected-queue nodes,
	// and scratch holds the arrival in hand without heap-allocating it.
	// scratch, stage, matched and held belong to one receive chain at a
	// time (receive.go): the proc, or the kernel running the chain's relay
	// in the proc's place, writes them, and carryOn ends the chain. No
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
	// operation fails fast instead of parking forever. closed: see Closed.
	fatal  error
	closed bool

	// awaiting is the request Wait is parked on (see Nudge); nudgeAll (tests
	// only) makes every Nudge wake, and nudgesDropped counts those that did
	// not. The two share closed's padding, as do poll (how Wait parks: see
	// SetTransport) and stage, where the receive chain stands (receive.go).
	// Unless poll is parkPoll, Wait and Probe park through a relay
	// (waitRelay, waitChain, probeRelay) with waiter, the parked proc,
	// beside it, and waited, its request, for waitChain. held and matched
	// are what the chain leaves the proc to carry on with.
	nudgeAll      bool
	poll          pollKind
	stage         stage
	nudgesDropped int32
	awaiting      *Request
	waiter        *sim.Proc
	waited        *Request
	held          *Packet
	matched       *Request

	// Fault-tolerance state (see ft.go): peers declared dead with their
	// death reasons, in detection order; how many of those deaths the
	// process has acknowledged (FailureAck); and revoked communicator
	// context ids.
	dead      map[int]error
	deadOrder []int
	ackedDead int
	revoked   map[int]bool

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

// plainKernel is set under the plainkernel build tag (plainkernel.go).
var plainKernel bool

// pollKind is what the kernel can run of a poll for a rank parked in Wait.
type pollKind uint8

const (
	parkPoll  pollKind = iota // nothing: the rank wakes and polls itself (the plain kernel)
	freePoll                  // all of Progress: no poll charges the rank
	stepsPoll                 // the receive chain, charges and blocks as its steps
)

// SetTransport attaches the platform transport; must be called before use.
// It also reads the cost tables for whether a poll can charge the rank:
// not when every engine cost is zero and the wire's only charge, its poll
// cost, is zero too (mem), where the kernel runs all of Progress at a
// parked rank's wake (freePoll); everywhere else it runs the receive chain
// (stepsPoll). The plain kernel (plainKernel) parks every wire's Wait
// plainly.
func (e *Engine) SetTransport(tr Transport) {
	e.tr, e.poll = tr, stepsPoll
	if plainKernel {
		e.poll = parkPoll
	} else if w, ok := tr.(interface{ PollCost() sim.Duration }); ok && w.PollCost() == 0 && e.costs == (EngineCosts{}) {
		e.poll = freePoll
	}
}

// SetFlow gives the engine its wire's eager/rendezvous crossover in payload
// bytes and the queue that holds sends back while a destination's capacity
// is spent (nil when no send ever waits). The wire builds fc with its own
// cost: what a send costs at its destination is the wire's business.
func (e *Engine) SetFlow(eager int, fc *SendQueue) { e.eager, e.fc = eager, fc }

// MaxEager reports the eager/rendezvous crossover in bytes.
func (e *Engine) MaxEager() int { return e.eager }

// viaRndv reports whether req's payload is past the crossover, so the send
// ships a rendezvous envelope and the payload moves on CTS.
func (e *Engine) viaRndv(req *Request) bool { return req.Env.Count > e.eager }

// EagerBytes is the SendQueue cost of a wire whose receiver holds eager
// payloads in reserved bytes: an eager send takes hdr plus its payload, a
// rendezvous envelope nothing (the CTS handshake flow-controls its payload).
func (e *Engine) EagerBytes(hdr int) func(*Request) int {
	return func(req *Request) int {
		if e.viaRndv(req) {
			return 0
		}
		return hdr + req.Env.Count
	}
}

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
	e.acct.Spend(p, sim.Overhead, e.costs.SendOverhead)
	e.acct.Add(ctrSend, 1)
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
		e.send(p, req)
	case ModeBuffered:
		e.bufUsed += need
		// Copy into the attached buffer so the caller's storage is free to
		// reuse immediately; transmission proceeds in the background.
		stable := make([]byte, need)
		copy(stable, data)
		req.Buf = stable
		e.acct.Spend(p, sim.Copy, e.costs.CopyBase+sim.Duration(need)*e.costs.CopyPerByte)
		req.buffered = true
		e.send(p, req)
		req.complete(Status{Source: dst, Tag: tag, Count: need}, nil)
	default: // standard and ready
		e.send(p, req)
	}
	req.sendMaybeComplete()
	return req, nil
}

// send hands req to the wire. It never blocks (MPI_Isend semantics): when
// flow control (an envelope slot or byte credits) is spent, req queues in
// issue order behind every earlier send to its destination — so MPI's
// non-overtaking rule survives a mix of queued eager messages and
// rendezvous envelopes — and ships when a credit releases it.
func (e *Engine) send(p *sim.Proc, req *Request) {
	if e.fc == nil || e.fc.Offer(req) {
		e.transmit(p, req)
	}
}

// transmit ships one send whose flow control has cleared: the whole
// message when it is eager, else the rendezvous envelope. p is nil when a
// returned credit released the send in event context. A send that failed
// while it queued ships nothing; Done() is the wrong guard, as a buffered
// send completes at Isend time yet must still ship.
func (e *Engine) transmit(p *sim.Proc, req *Request) {
	dst := req.Env.Dest
	if req.Err() != nil || e.PeerDead(dst) {
		return
	}
	if e.viaRndv(req) {
		e.tr.Ship(p, dst, Packet{Kind: PktRTS, Env: req.Env})
		return
	}
	e.tr.Ship(p, dst, Packet{Kind: PktEager, Env: req.Env, Data: req.Buf})
	e.SendDone(req)
}

// landCredit takes back, in event context, the capacity a PktCredit that
// landed in an Inbox returns, and ships at once the sends it clears; a
// grant that ships nothing nudges the rank (a Probe or Finalize may use
// the capacity).
func (e *Engine) landCredit(src, n int) {
	shipped := false
	e.fc.Grant(src, n, func(req *Request) {
		shipped = true
		e.transmit(nil, req)
	})
	if !shipped {
		e.Nudge()
	}
}

// Credit takes back n units of capacity toward src for a wire whose own
// poll parsed the credit: the sends it clears ship where the receive chain
// stops (carryOn), in the rank's context, which charges the wire's writes.
func (e *Engine) Credit(src, n int) {
	if n > 0 {
		e.fc.Grant(src, n, e.released.Push)
	}
}

// control ships a packet that carries no payload.
func (e *Engine) control(p *sim.Proc, dst int, kind PacketKind, env Envelope) {
	e.tr.Ship(p, dst, Packet{Kind: kind, Env: env, ReqID: env.SendID})
}

// release returns n bytes of eager bounce space to src: the wire ships the
// credit, piggybacks it later, or (the Meiko, whose slot freed when the
// poll read the envelope) drops it.
func (e *Engine) release(p *sim.Proc, src, n int) {
	e.tr.Ship(p, src, Packet{Kind: PktCredit, Env: Envelope{Source: e.rank, Count: n}})
}

// selfSend delivers a message to this rank without touching the transport:
// a memory copy through the matcher. All modes are locally complete except
// synchronous, which still requires the matching receive.
func (e *Engine) selfSend(p *sim.Proc, req *Request, mode Mode, data []byte) (*Request, error) {
	stable := e.pool.Get(len(data))
	copy(stable, data)
	e.acct.Spend(p, sim.Copy, e.costs.CopyBase+sim.Duration(len(data))*e.costs.CopyPerByte)
	e.markSent(req)
	if mode == ModeSync {
		req.ackWanted = true
	}
	e.scratch, e.stage = InMsg{Env: req.Env, Data: stable, Pool: e.pool}, stArrived
	e.chain(p)
	req.sendMaybeComplete()
	e.retire(req)
	return req, nil
}

// --------------------------------------------------------------- receives --

// Irecv posts a nonblocking receive into buf matching (src, tag, ctx);
// src may be AnySource and tag may be AnyTag.
func (e *Engine) Irecv(p *sim.Proc, src, tag, ctx int, buf []byte) (*Request, error) {
	req, err := e.newRecv(p, src, tag, ctx, buf)
	if err != nil {
		return nil, err
	}
	e.waited, e.stage = req, stNewRecv
	e.chain(p)
	e.waited = nil
	return req, nil
}

// Recv is Irecv then Wait (MPI_Recv). Where the kernel runs the receive
// chain for a parked rank (stepsPoll) and the receive's bookkeeping
// charges, the two are one chain, which the kernel runs in p's place at
// each charge's wake (recvChained): the bookkeeping and match charges, the
// post, Wait's first poll and its park. p is dispatched where the post
// takes a queued message, which p delivers, or where the chain leaves p
// work, as at a Wait wake.
func (e *Engine) Recv(p *sim.Proc, src, tag, ctx int, buf []byte) (Status, error) {
	if e.poll != stepsPoll || e.costs.RecvOverhead <= 0 {
		r, err := e.Irecv(p, src, tag, ctx, buf)
		if err != nil {
			return Status{}, err
		}
		return e.Wait(p, r)
	}
	r, err := e.newRecv(p, src, tag, ctx, buf)
	if err != nil {
		return Status{}, err
	}
	e.recvChained(p, r)
	if e.stage == stPosted {
		e.carryOn(p)
		return e.Wait(p, r)
	}
	if e.carryOn(p) {
		e.Progress(p)
	}
	return e.await(p, r)
}

// Sendrecv is MPI_Sendrecv (see the package's Sendrecv). On a charge-free
// wire (freePoll) the send's wait carries on for the receive (pairWait), so
// p is dispatched at the wake that ends the pair, not at the send's and
// again at the receive's.
func (e *Engine) Sendrecv(p *sim.Proc, dst, sendTag int, data []byte, src, recvTag, ctx int, buf []byte) (Status, error) {
	var pair func(p *sim.Proc, s, r *Request)
	if e.poll == freePoll {
		pair = e.pairWait
	}
	return Sendrecv(e, p, dst, sendTag, data, src, recvTag, ctx, buf, pair)
}

// newRecv is a receive's checks and drain, then its request, not yet
// posted (see post).
func (e *Engine) newRecv(p *sim.Proc, src, tag, ctx int, buf []byte) (*Request, error) {
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
	return req, nil
}

// recvDone completes receive req with a message of n bytes, of which
// req.Buf holds what fits: a longer message is ErrTruncate.
func (e *Engine) recvDone(req *Request, env Envelope, n int, note string) {
	st := Status{Source: env.Source, Tag: env.Tag, Count: min(n, len(req.Buf))}
	var err error
	if n > len(req.Buf) {
		err = Truncated(n, len(req.Buf))
	}
	req.complete(st, err)
	e.retire(req)
	e.trc(trace.RecvDone, st.Source, st.Tag, st.Count, note)
	e.Nudge()
}

// ----------------------------------------------------------------- progress --

// pollOnce runs the receive chain from the poll in p. It reports whether
// the chain took a packet in hand or the poll released sends: parsing is
// what returns credits, and a send freed by this very poll ships before
// the next pollOnce polls again (Progress stops once nothing surfaces).
// false means the wire is drained as of now.
func (e *Engine) pollOnce(p *sim.Proc) bool {
	e.stage = stPoll
	return e.chain(p)
}

// chain runs the receive chain from its stage in p, as waitChain runs it
// at a parked rank's wake: each run of charges is one SpendThen chain
// through the receive relay, and each block a Cond.Wait; then carryOn,
// whose report it returns.
func (e *Engine) chain(p *sim.Proc) bool {
	for {
		c, d, step, wait := e.step()
		switch {
		case wait != nil:
			wait.Wait(p)
		case step != sim.Decline:
			p.SpendThen(c, d, (*receive)(e))
		case e.stage == stIdle:
			return false
		default:
			return e.carryOn(p)
		}
	}
}

// Progress drains all currently pending arrivals: the poll model's one
// progress rule. A rank runs its protocol only here, inside its own MPI
// calls, and only the modelled hardware and kernel act for it outside them,
// through event-context upcalls — the latency/background-progress trade the
// paper studies. The poll surfaces nothing with no time charged since it
// looked, so a caller may Park at once without losing a wakeup.
func (e *Engine) Progress(p *sim.Proc) {
	for e.pollOnce(p) {
	}
}

func (e *Engine) handle(p *sim.Proc, pkt *Packet) {
	switch pkt.Kind {
	case PktEager, PktRTS:
		e.scratch, e.stage = inMsg(pkt), stArrived
		e.chain(p)
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
		// SendDone completes and retires the send: req may be reissued
		// once it returns.
		req.acked = true
		e.tr.SendPayload(p, req, pkt)
		e.SendDone(req)
	case PktSyncAck:
		e.SendAcked(pkt.ReqID)
	case PktData:
		// A wire that copies the payload carries it in Data; a socket
		// landing placed it already.
		if !e.Land(pkt.ReqID, pkt.Env, pkt.Data, pkt.Pool) && !e.ftActive() {
			e.Errors = append(e.Errors, Errorf(ErrInternal, "payload for unknown receive request %d", pkt.ReqID))
		}
	case PktRevoke:
		e.revokeMsg(p, pkt.Env)
	default:
		e.Errors = append(e.Errors, Errorf(ErrInternal, "unexpected packet kind %v", pkt.Kind))
	}
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
	e.Nudge()
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
		e.Nudge()
	}
	return req
}

// Wake rouses the rank parked in Park to re-poll: the wire holds something
// the poll would surface (an arrival, credits to ship, a readable
// connection). Callable from event context.
func (e *Engine) Wake() { e.cond.Broadcast() }

// Nudge follows a completion or a returned credit: it rouses the parked
// rank unless Wait parked it on a request still pending, which would poll
// an empty wire and park again, charged nothing (DESIGN §5). Callable from
// event context.
func (e *Engine) Nudge() {
	if r := e.awaiting; r != nil && !r.Done() && !e.nudgeAll {
		e.nudgesDropped++
		return
	}
	e.cond.Broadcast()
}

// Park is the rank's one wait point for protocol progress, inside an MPI
// call; Wake, Fatal, PeerDown and (see Nudge) a completion rouse it.
func (e *Engine) Park(p *sim.Proc) { e.cond.Wait(p) }

// Closed reports whether the rank has left Finalize or been killed (Kill):
// it never polls again, so its transport discards (and acks) what still
// reaches it.
func (e *Engine) Closed() bool { return e.closed }

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
}

// Kill is a scheduled process death, at its instant, on the victim: Fatal
// with err, and the rank is closed as if it had left Finalize, so its
// transport discards what still reaches it. A transport that retransmits
// stops, abandoning what it has outstanding. Callable from event context.
func (e *Engine) Kill(err error) {
	e.Fatal(err)
	e.closed = true
	if s, ok := e.tr.(interface{ Stop() }); ok {
		s.Stop()
	}
}

// FatalErr reports the transport-fatal error, if any.
func (e *Engine) FatalErr() error { return e.fatal }

// -------------------------------------------------------- completion ops --

// Wait blocks until r completes, making progress while waiting, and
// consumes r. The kernel runs what the rank does at each wake (waitRelay
// on a charge-free wire, waitChain on the others), except on the plain
// kernel (parkPoll).
func (e *Engine) Wait(p *sim.Proc, r *Request) (Status, error) {
	if err := e.stale(r); err != nil {
		return Status{}, err
	}
	if !r.Done() {
		e.Progress(p)
	}
	return e.await(p, r)
}

// await is Wait past its first poll.
func (e *Engine) await(p *sim.Proc, r *Request) (Status, error) {
	for !r.Done() {
		if e.fatal != nil {
			r.complete(Status{}, e.fatal)
			break
		}
		e.awaiting = r
		switch e.poll {
		case freePoll:
			e.waitRelayed(p, r)
		case stepsPoll:
			if e.waitChained(p, r) {
				e.Progress(p)
			}
		default:
			e.Park(p)
			e.awaiting = nil
			if !r.Done() {
				e.Progress(p)
			}
		}
	}
	return e.consume(r)
}

// waitRelayed parks p until r completes or the rank dies, with the poll
// that follows each wake run by the kernel in p's place (waitRelay): with
// nothing charged, p is dispatched only at the wake that ends the wait.
func (e *Engine) waitRelayed(p *sim.Proc, r *Request) {
	e.waiter = p
	e.cond.WaitThen(p, (*waitRelay)(e))
	e.waiter, e.waited = nil, nil
	if !r.Done() {
		r.complete(Status{}, e.fatal)
	}
}

// waitRelay is what a rank parked in Wait does at each wake: Progress, the
// check, and Park again, all charged nothing (freePoll). A Sendrecv's wait
// (pairWait) names its receive in waited: once the send is out, the check,
// and awaiting with it, move to the receive, so Nudge drops the wakes that
// would find the pair unfinished.
type waitRelay Engine

func (w *waitRelay) Relay() (sim.Cat, sim.Duration, sim.Step) {
	e := (*Engine)(w)
	r := e.awaiting
	e.awaiting = nil // as Wait's loop has it while it polls
	e.Progress(e.waiter)
	if e.waited != nil && r.Done() && r.Err() == nil {
		r = e.waited
	}
	if r.Done() || e.fatal != nil {
		return 0, 0, sim.Decline
	}
	e.awaiting = r
	e.cond.Requeue(e.waiter)
	return 0, 0, sim.Stay
}

// pairWait is Sendrecv's wait for send s on a charge-free wire: Wait's
// first poll, then, while s is pending, one park (waitRelayed) that lasts
// until s is out and receive r done too, s has failed or the rank is dead.
// Both Waits that follow find their request done.
func (e *Engine) pairWait(p *sim.Proc, s, r *Request) {
	if !s.Done() {
		e.Progress(p)
	}
	if !s.Done() && e.fatal == nil {
		e.awaiting, e.waited = s, r
		e.waitRelayed(p, s)
	}
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
// Matcher.Probe). Once the first Iprobe finds nothing, the rank parks and
// the Iprobe of each wake is the kernel's (probeParked), except on the
// plain kernel (parkPoll).
func (e *Engine) Probe(p *sim.Proc, src, tag, ctx int) (Status, error) {
	st, ok, _ := e.Iprobe(p, src, tag, ctx)
	for !ok {
		if e.fatal != nil {
			return Status{}, e.fatal
		}
		if err := e.ftRecvCheck(src, ctx); err != nil {
			return Status{}, err
		}
		if e.poll == parkPoll {
			e.Park(p)
			st, ok, _ = e.Iprobe(p, src, tag, ctx)
		} else {
			st, ok = e.probeParked(p, src, tag, ctx)
		}
	}
	return st, nil
}

// Iprobe makes progress and reports whether a matching message is queued
// in the unexpected queue (posted-receive state is invisible, as for
// Probe). The matching charge is paid before draining arrivals: time consumed
// after the drain would open a lost-wakeup window for callers that park
// when the probe fails.
func (e *Engine) Iprobe(p *sim.Proc, src, tag, ctx int) (Status, bool, error) {
	e.acct.Spend(p, sim.Match, e.costs.Match)
	e.Progress(p)
	st, ok := e.probed(src, tag, ctx)
	return st, ok, nil
}

// probed is Iprobe's check, after its poll.
func (e *Engine) probed(src, tag, ctx int) (Status, bool) {
	if msg := e.match.Probe(src, tag, ctx); msg != nil {
		return Status{Source: msg.Env.Source, Tag: msg.Env.Tag, Count: msg.Env.Count}, true
	}
	return Status{}, false
}

// Finalize implements Endpoint: poll until every locally-initiated send
// has been handed to the wire (a buffered rendezvous send needs this
// process to answer its CTS), or a dead link means none ever will, then
// close the rank (see Closed). By the progress rule nothing is queued for
// it at that instant.
func (e *Engine) Finalize(p *sim.Proc) {
	for {
		e.Progress(p)
		if e.fatal != nil || e.unsent == 0 {
			break
		}
		e.Park(p)
	}
	e.closed = true
}

// ProtocolErrors reports asynchronous protocol errors recorded at this
// rank (e.g. ready-mode violations), for post-run inspection.
func (e *Engine) ProtocolErrors() []error { return e.Errors }

// String identifies the engine in traces.
func (e *Engine) String() string { return fmt.Sprintf("engine[rank %d]", e.rank) }
