package core

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// The receive path as a chain (DESIGN §4, relay): a new receive's
// bookkeeping and match charges and its post, the wire's poll
// (Transport.PollStep), an arrival's match charge, the match and an eager
// copy-out charge are one relay, which the kernel runs at each charge's
// wake in the proc's place. The rank's own Irecv and Progress run it
// (chain, pollOnce), and so does the kernel for a rank parked in Wait
// (waitChain), in Recv from the receive's own charges on (stRecv), and in
// Probe (probeRelay). Where the chain stops, its stage says what the proc
// carries on with (carryOn): after a copy-out the credit release and the
// completion (a socket's credit Ship may write), and whatever else needs
// the proc.

// stage is where the receive chain stands.
type stage uint8

const (
	stIdle    stage = iota // nothing in hand: at a Wait wake, or the poll surfaced nothing
	stNewRecv              // e.waited is a new receive: its bookkeeping charge is next
	stRecv                 // its bookkeeping charge is paid: its match charge and the post are next
	stPost                 // its match charge is paid: posting it is next
	stPoll                 // the wire's PollStep is next or under way
	stArrived              // e.scratch is an arrival in hand: its match charge is next
	stMatch                // the match charge is paid: match e.scratch
	stMatched              // e.scratch matched e.matched: its copy-out is paid, its delivery is left
	stPosted               // as stMatched, for a queued message the post of e.matched took
	stQueue                // e.scratch matched nothing: queueing it is left
	stRevoked              // e.scratch came on a revoked communicator: dropping it is left
	stPacket               // e.held is not an arrival, or sends wait in e.released: shipping and handling are left
)

// receive is the chain as a sim.Relay.
type receive Engine

func (r *receive) Relay() (sim.Cat, sim.Duration, sim.Step) {
	c, d, step, _ := (*Engine)(r).step()
	return c, d, step
}

// step runs the chain from its stage to its next charge and reports it:
// More, or Last for an eager copy-out. Where the poll blocks it declines
// with the Cond to wait on, which a second step at that instant reports
// again. It declines, charging nothing, where the proc carries on (with
// pkt in hand, sends the poll's credits released, or a queued message the
// post took), and at stIdle once the poll surfaced nothing or the post
// took nothing.
func (e *Engine) step() (sim.Cat, sim.Duration, sim.Step, *sim.Cond) {
	switch e.stage {
	case stNewRecv:
		e.stage = stRecv
		if d := e.costs.RecvOverhead; d > 0 {
			return sim.Overhead, d, sim.More, nil
		}
		fallthrough
	case stRecv:
		e.stage = stPost
		if d := e.costs.Match; d > 0 {
			return sim.Match, d, sim.More, nil
		}
		fallthrough
	case stPost:
		e.stage = stIdle
		if d := e.post(e.waited); d > 0 {
			return sim.Copy, d, sim.Last, nil
		}
	case stPoll:
		c, d, pkt, wait := e.tr.PollStep()
		switch {
		case d > 0:
			return c, d, sim.More, nil
		case wait != nil:
			return 0, 0, sim.Decline, wait
		case e.released.Len() > 0:
			e.held, e.stage = pkt, stPacket
			return 0, 0, sim.Decline, nil
		case pkt == nil:
			e.stage = stIdle
			return 0, 0, sim.Decline, nil
		case pkt.Kind != PktEager && pkt.Kind != PktRTS:
			e.held, e.stage = pkt, stPacket
			return 0, 0, sim.Decline, nil
		}
		e.scratch = inMsg(pkt)
		fallthrough
	case stArrived:
		e.stage = stMatch
		if d := e.costs.Match; d > 0 {
			return sim.Match, d, sim.More, nil
		}
		fallthrough
	case stMatch:
		if d := e.matchArrival(); d > 0 {
			return sim.Copy, d, sim.Last, nil
		}
	}
	return 0, 0, sim.Decline, nil
}

// inMsg is the message an eager or RTS packet carries.
func inMsg(pkt *Packet) InMsg {
	if pkt.Kind == PktRTS {
		return InMsg{Env: pkt.Env, Rndv: true}
	}
	return InMsg{Env: pkt.Env, Data: pkt.Data, Pool: pkt.Pool}
}

// carryOn does what the chain left to the proc where it stopped, and
// reports whether it had anything in hand: a packet, or released sends.
func (e *Engine) carryOn(p *sim.Proc) bool {
	st, req, pkt := e.stage, e.matched, e.held
	if st == stIdle {
		return false
	}
	e.stage, e.matched, e.held = stIdle, nil, nil
	switch st {
	case stMatched, stPosted:
		if e.scratch.Rndv {
			e.acceptRndv(p, &e.scratch, req)
		} else {
			e.delivered(p, &e.scratch, req)
		}
	case stQueue:
		e.queueUnexpected()
	case stRevoked:
		e.dropRevoked(p)
	case stPacket:
		for e.released.Len() > 0 {
			e.transmit(p, e.released.Pop())
		}
		if pkt != nil {
			e.handle(p, pkt)
		}
	}
	return true
}

// matchArrival matches the message arriving at this rank in e.scratch — an
// eager payload, a rendezvous announcement or a self-send — against the
// posted receives, once its match charge is paid: matched, it is
// delivered through the reusable scratch node, so the hot path performs no
// allocation; otherwise it queues as unexpected. It sets the stage for
// what is left and returns an eager copy-out's charge.
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
	e.matched, e.stage = req, stMatched
	return e.matchedMsg(msg, req)
}

// post enters receive r into the matcher once its charges are paid. Where
// r takes a queued message, the message moves to e.scratch, matched to r
// (stPosted), and post returns an eager copy-out's charge.
func (e *Engine) post(r *Request) sim.Duration {
	e.acct.Add(ctrRecv, 1)
	e.trc(trace.RecvPost, r.Env.Source, r.Env.Tag, len(r.Buf), "")
	msg := e.match.PostRecv(r)
	if msg == nil {
		e.acct.Raise(ctrPostedMax, int64(e.match.PostedLen()))
		return 0
	}
	e.scratch = *msg
	e.freeInMsg(msg)
	e.matched, e.stage = r, stPosted
	return e.matchedMsg(&e.scratch, r)
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

// waitChain is what a rank parked in Wait does at each wake where a poll
// may charge (stepsPoll), run by the kernel in its place: the check of the
// awaited request, the receive chain, each charge at its own wake and a
// blocked poll Staying on the Cond it names, then the check again, and
// back on the engine's Cond while the request is pending and the rank
// alive. Recv enters it at stRecv, as the relay of its bookkeeping charge:
// the receive's own stages come first, and unless the post took a queued
// message, which the proc delivers, Wait's first poll follows.
type waitChain Engine

func (w *waitChain) Relay() (sim.Cat, sim.Duration, sim.Step) {
	e := (*Engine)(w)
	r := e.waited
	if e.stage == stRecv || e.stage == stPost {
		if c, d, step, _ := e.step(); step != sim.Decline || e.stage != stIdle {
			return c, d, step
		}
	}
	if e.stage == stIdle { // a wake, or the post took nothing
		e.awaiting = nil // as Wait's loop has it once Park returns
		if r.Done() {
			return 0, 0, sim.Decline
		}
		e.stage = stPoll
	}
	c, d, step, drained := e.waitStep()
	if !drained {
		return c, d, step
	}
	if r.Done() || e.fatal != nil {
		return 0, 0, sim.Decline
	}
	e.awaiting = r
	return e.stay()
}

// waitStep is the receive chain run by the kernel for a rank parked in a
// relay wait (waitChain, probeRelay): a blocked poll Stays on the Cond it
// names; a charge, or a stop that leaves the proc work, is reported; and
// drained reports that the poll surfaced nothing, for the caller's check.
func (e *Engine) waitStep() (c sim.Cat, d sim.Duration, step sim.Step, drained bool) {
	c, d, step, wait := e.step()
	if wait != nil {
		wait.Requeue(e.waiter)
		return 0, 0, sim.Stay, false
	}
	return c, d, step, step == sim.Decline && e.stage == stIdle
}

// stay puts the parked rank back on the engine's Cond.
func (e *Engine) stay() (sim.Cat, sim.Duration, sim.Step) {
	e.cond.Requeue(e.waiter)
	return 0, 0, sim.Stay
}

// waitChained parks p, waiting for r, with waitChain run at each wake, so
// p is dispatched only where the chain leaves it work; p does that work
// and reports whether the chain had a packet in hand, which leaves the
// rest of Progress to p.
func (e *Engine) waitChained(p *sim.Proc, r *Request) bool {
	e.waiter, e.waited = p, r
	e.cond.WaitThen(p, (*waitChain)(e))
	e.waiter, e.waited = nil, nil
	return e.carryOn(p)
}

// recvChained runs Recv's chain in p for receive r: its bookkeeping charge
// with waitChain, from stRecv, as the relay.
func (e *Engine) recvChained(p *sim.Proc, r *Request) {
	e.waiter, e.waited, e.stage = p, r, stRecv
	p.SpendThen(sim.Overhead, e.costs.RecvOverhead, (*waitChain)(e))
	e.waiter, e.waited = nil, nil
}

// probeRelay is what a rank parked in Probe does at each wake, run by the
// kernel in its place: that wake's Iprobe — its match charge, the receive
// chain, then the check — and back on the engine's Cond until a message
// may match, the rank dies or a peer's death or a revoke may fail the
// probe. Only the proc queues an unexpected message (carryOn, where the
// chain declines), so a drained poll leaves the unexpected queue as the
// proc last checked it; a fault is the proc's to check (ftRecvCheck).
type probeRelay Engine

func (w *probeRelay) Relay() (sim.Cat, sim.Duration, sim.Step) {
	e := (*Engine)(w)
	if e.stage == stIdle { // a wake
		e.stage = stPoll
		if d := e.costs.Match; d > 0 {
			return sim.Match, d, sim.More
		}
	}
	c, d, step, drained := e.waitStep()
	if !drained {
		return c, d, step
	}
	if e.fatal != nil || e.ftActive() {
		return 0, 0, sim.Decline
	}
	return e.stay()
}

// probeParked parks p in Probe for (src, tag, ctx), with probeRelay run at
// each wake, so p is dispatched only where a wake's Iprobe leaves it work
// or ends the wait; p finishes that Iprobe and reports its check.
func (e *Engine) probeParked(p *sim.Proc, src, tag, ctx int) (Status, bool) {
	e.waiter = p
	e.cond.WaitThen(p, (*probeRelay)(e))
	e.waiter = nil
	if e.carryOn(p) {
		e.Progress(p)
	}
	return e.probed(src, tag, ctx)
}
