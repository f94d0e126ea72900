package core

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// The receive path as a chain (DESIGN §4, relay): an arrival's match
// charge, the match and an eager copy-out charge are one relay, which the
// kernel runs at each charge's wake in the proc's place. On a wire whose
// Poll has steps (pollStepper) the poll is the chain's head, and the kernel
// runs the whole chain for a rank parked in Wait (waitChain). Where the
// chain stops, its stage says what the proc carries on with (carryOn):
// after a copy-out the credit release and the completion (a socket's
// credit Ship may write), and whatever else needs the proc.

// stage is where the receive chain stands.
type stage uint8

const (
	stIdle    stage = iota // nothing in hand: at a Wait wake, or the poll surfaced nothing
	stPoll                 // the wire's stepped Poll is under way
	stMatch                // the match charge is paid: match e.scratch
	stCopied               // e.scratch is copied out to e.matched: credit and completion are left
	stRndv                 // e.scratch is an RTS matched to e.matched: the accept is left
	stQueue                // e.scratch matched nothing: queueing it is left
	stRevoked              // e.scratch came on a revoked communicator: dropping it is left
	stPacket               // e.held is not an arrival, or sends wait in e.released: pollOnce's rest is left
)

// pollStepper is a wire whose Poll is charges and blocks with code between
// them that never blocks (the Meiko's, the sockets'). PollStep runs Poll's
// code up to its next charge and reports it (d > 0); or where Poll blocks
// (a socket read that found nothing buffered mid-frame) the Cond it waits
// on, its next step charging the wakeup; or, with neither, the packet Poll
// returns. After a charge it is called again at its wake, after a block at
// the Cond's. The wire's Poll is PollStep's steps with each charge spent
// and each block waited out in between, so the proc's poll and the
// kernel's are one code path. A credit the Meiko's poll reads lands in its
// Inbox; one a socket's parses goes through Credit, whose released sends
// the proc ships (pollOnce), so the chain stops there.
type pollStepper interface {
	PollStep() (c sim.Cat, d sim.Duration, pkt *Packet, wait *sim.Cond)
}

// receive is the chain as a sim.Relay.
type receive Engine

func (r *receive) Relay() (sim.Cat, sim.Duration, sim.Step) { return (*Engine)(r).step() }

// step runs the chain from its stage to its next charge and reports it:
// More, or Last for an eager copy-out. A poll that blocks Stays on the
// Cond it names. It declines, charging nothing, where the proc carries on
// (with pkt in hand, or sends the poll's credits released), and at stIdle
// once the poll surfaced nothing.
func (e *Engine) step() (sim.Cat, sim.Duration, sim.Step) {
	for {
		switch e.stage {
		case stPoll:
			c, d, pkt, wait := e.tr.(pollStepper).PollStep()
			switch {
			case d > 0:
				return c, d, sim.More
			case wait != nil:
				wait.Requeue(e.waiter)
				return 0, 0, sim.Stay
			case e.released.Len() > 0:
				e.held, e.stage = pkt, stPacket
				return 0, 0, sim.Decline
			case pkt == nil:
				e.stage = stIdle
				return 0, 0, sim.Decline
			case pkt.Kind == PktEager || pkt.Kind == PktRTS:
				e.scratch, e.stage = inMsg(pkt), stMatch
				if d := e.costs.Match; d > 0 {
					return sim.Match, d, sim.More
				}
			default:
				e.held, e.stage = pkt, stPacket
				return 0, 0, sim.Decline
			}
		case stMatch:
			if d := e.matchArrival(); d > 0 {
				return sim.Copy, d, sim.Last
			}
			return 0, 0, sim.Decline
		default:
			return 0, 0, sim.Decline
		}
	}
}

// inMsg is the message an eager or RTS packet carries.
func inMsg(pkt *Packet) InMsg {
	if pkt.Kind == PktRTS {
		return InMsg{Env: pkt.Env, Rndv: true}
	}
	return InMsg{Env: pkt.Env, Data: pkt.Data, Pool: pkt.Pool}
}

// carryOn does what the chain left to the proc where it stopped, and
// reports whether the chain took a packet in hand.
func (e *Engine) carryOn(p *sim.Proc) bool {
	st, req, pkt := e.stage, e.matched, e.held
	if st == stIdle {
		return false
	}
	e.stage, e.matched, e.held = stIdle, nil, nil
	switch st {
	case stCopied:
		e.delivered(p, &e.scratch, req)
	case stRndv:
		e.acceptRndv(p, &e.scratch, req)
	case stQueue:
		e.queueUnexpected()
	case stRevoked:
		e.dropRevoked(p)
	case stPacket:
		if pkt = e.shipReleased(p, pkt); pkt != nil {
			e.handle(p, pkt)
		}
	}
	return true
}

// arrive matches a message arriving at this rank — an eager payload, a
// rendezvous announcement or a self-send — against the posted receives:
// matched, it is delivered through the reusable scratch node so the hot path
// performs no allocation; otherwise it queues as unexpected. The match
// charge, the match and an eager copy-out are one chain.
func (e *Engine) arrive(p *sim.Proc, msg InMsg) {
	e.scratch, e.stage = msg, stMatch
	if d := e.costs.Match; d > 0 {
		p.SpendThen(sim.Match, d, (*receive)(e))
	} else if d := e.matchArrival(); d > 0 {
		p.Spend(sim.Copy, d)
	}
	e.carryOn(p)
}

// matchArrival is arrive's code after the match charge: it sets the stage
// for what is left and returns an eager copy-out's charge.
func (e *Engine) matchArrival() sim.Duration {
	msg := &e.scratch
	env := msg.Env
	note := "eager"
	if msg.Rndv {
		note = "rts"
	} else if env.Source == e.rank {
		note = "self"
	}
	e.trc(trace.Arrive, env.Source, env.Tag, env.Count, note)
	if e.revoked[env.Context] {
		e.stage = stRevoked
		return 0
	}
	req := e.match.Arrive(env)
	if req == nil {
		e.stage = stQueue
		return 0
	}
	e.matched, e.stage = req, stCopied
	if msg.Rndv {
		e.stage = stRndv
	}
	return e.matchedMsg(msg, req)
}

// dropRevoked drops stale traffic on a revoked communicator. An eager
// payload returns its bounce space (the sender may be alive and reuse the
// pair's credits on another communicator); a rendezvous sender's request
// was already failed by its own revoke.
func (e *Engine) dropRevoked(p *sim.Proc) {
	msg := &e.scratch
	if !msg.Rndv && msg.Env.Source != e.rank {
		e.release(p, msg.Env.Source, len(msg.Data))
	}
	if msg.Pool != nil {
		msg.Pool.Put(msg.Data)
	}
}

// queueUnexpected queues the arrival no posted receive matched.
func (e *Engine) queueUnexpected() {
	env := e.scratch.Env
	if env.Mode == ModeReady {
		e.Errors = append(e.Errors, Errorf(ErrReady, "ready-mode send from rank %d (tag %d) arrived before a matching receive was posted", env.Source, env.Tag))
	}
	m := e.newInMsg()
	*m = e.scratch
	e.match.AddUnexpected(m)
	e.acct.Raise(ctrUnexpectedMax, int64(e.match.UnexpectedLen()))
}

// deliverMatched finishes the match of an in-queue message with receive req:
// eager payloads are copied out of bounce space (and the space released);
// rendezvous messages are accepted so the transport can move the payload.
func (e *Engine) deliverMatched(p *sim.Proc, msg *InMsg, req *Request) {
	d := e.matchedMsg(msg, req)
	if msg.Rndv {
		e.acceptRndv(p, msg, req)
		return
	}
	e.acct.Spend(p, sim.Copy, d)
	e.delivered(p, msg, req)
}

// matchedMsg marks req matched with msg and copies an eager payload out,
// returning the copy's charge.
func (e *Engine) matchedMsg(msg *InMsg, req *Request) sim.Duration {
	req.matched = true
	req.matchedSrc = msg.Env.Source
	e.trc(trace.Match, msg.Env.Source, msg.Env.Tag, msg.Env.Count, "")
	if msg.Rndv {
		return 0
	}
	copied := copy(req.Buf, msg.Data)
	return e.costs.CopyBase + sim.Duration(copied)*e.costs.CopyPerByte
}

// acceptRndv hands a matched RTS to the wire, which moves the payload.
func (e *Engine) acceptRndv(p *sim.Proc, msg *InMsg, req *Request) {
	if err := e.deadErr(msg.Env.Source); err != nil {
		// The announcer died with its payload: a CTS would go into the
		// fence and the receive would wait forever.
		req.complete(Status{}, err)
		e.retire(req)
		return
	}
	e.tr.Accept(p, msg, req)
}

// delivered finishes an eager delivery after its copy-out: the bounce
// space goes back to the sender (a synchronous send is acknowledged) and
// req completes.
func (e *Engine) delivered(p *sim.Proc, msg *InMsg, req *Request) {
	n := len(msg.Data)
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
		e.release(p, msg.Env.Source, n)
		if msg.Env.Mode == ModeSync {
			e.control(p, msg.Env.Source, PktSyncAck, msg.Env)
		}
	}
	if msg.Pool != nil {
		// The bounce buffer has been copied out; recycle it. No virtual
		// time is charged — pooling is a host-side optimization.
		msg.Pool.Put(msg.Data)
		msg.Data, msg.Pool = nil, nil
	}
	e.recvDone(req, msg.Env, n, "")
}

// waitChain is what a rank parked in Wait on a stepped wire does at each
// wake, run by the kernel in its place: the check of the awaited request,
// the receive chain, each charge at its own wake, then the check again,
// and back on the Cond while the request is pending and the rank alive.
type waitChain Engine

func (w *waitChain) Relay() (sim.Cat, sim.Duration, sim.Step) {
	e := (*Engine)(w)
	r := e.waited
	if e.stage == stIdle { // a wake
		e.awaiting = nil // as Wait's loop has it once Park returns
		if r.Done() {
			return 0, 0, sim.Decline
		}
		e.stage = stPoll
	}
	if c, d, step := e.step(); step != sim.Decline || e.stage != stIdle {
		return c, d, step
	}
	if r.Done() || e.fatal != nil {
		return 0, 0, sim.Decline
	}
	e.awaiting = r
	e.cond.Requeue(e.waiter)
	return 0, 0, sim.Stay
}

// waitChained parks p, waiting for r, with waitChain run at each wake, so
// p is dispatched only where the chain leaves it work; p does that work
// and reports whether the chain had a packet in hand, which leaves the
// rest of Progress to p.
func (e *Engine) waitChained(p *sim.Proc, r *Request) bool {
	e.waiter, e.waited = p, r
	// Also when Shutdown unwinds p: a world must not hold a rank's proc,
	// and through it the rank's body, past its Wait.
	defer func() { e.waiter, e.waited = nil, nil }()
	e.cond.WaitThen(p, (*waitChain)(e))
	return e.carryOn(p)
}
