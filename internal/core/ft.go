package core

import (
	"slices"

	"repro/internal/sim"
)

// ULFM-style fault tolerance: a peer death is a per-rank event, not a
// world-fatal one. PeerDown fails exactly the requests that can never
// complete (matched to or inevitably matching the dead rank), Revoke
// poisons one communicator's contexts on every survivor via a reliable
// broadcast, and the mpi layer builds Agree/Shrink on top of the
// DeadRanks/FailureAck state kept here. Everything runs on simulated-time
// deadlines scheduled by the platform (see mpi.World.ScheduleKills), so
// detection is deterministic, lane-safe, and costs zero wire traffic —
// worlds without faults stay bit-identical.

// PeerDown declares rank dead for the given reason. Every pending request
// that is matched to the dead rank — or can only ever match it — completes
// with a typed ErrPeerDown; unmatched wildcard receives fail too (the dead
// rank may have been their only sender; ULFM raises the same condition
// until the process acknowledges the failure, see FailureAck). Callable
// from event context; first detection wins, and self/fatal engines ignore
// the call.
func (e *Engine) PeerDown(rank int, reason error) {
	if rank == e.rank || e.fatal != nil {
		return
	}
	if e.dead == nil {
		e.dead = make(map[int]error)
	}
	if _, known := e.dead[rank]; known {
		return
	}
	if reason == nil {
		reason = Errorf(ErrPeerDown, "peer rank %d is dead", rank)
	}
	e.dead[rank] = reason
	e.deadOrder = append(e.deadOrder, rank)
	e.acct.Add(ctrPeerDown, 1)

	// Fail the doomed requests in creation order (table order must not leak
	// into matcher state, which later matching decisions observe).
	for _, r := range e.tabledInOrder() {
		if r.IsRecv {
			if r.matched {
				if r.matchedSrc != rank {
					continue
				}
			} else if r.Env.Source != rank && r.Env.Source != AnySource {
				continue
			}
			if !r.matched {
				e.match.CancelRecv(r)
			}
		} else if r.Env.Dest != rank {
			continue
		}
		r.complete(Status{}, reason)
		e.untable(r)
	}

	e.sweepRndv(rank)
	if e.fc != nil {
		e.fc.DropDst(rank)
	}
	e.released.Filter(func(req *Request) bool { return req.Env.Dest != rank })
	e.tr.PeerDown(rank)
	e.cond.Broadcast()
}

// deadErr reports the death reason for rank, nil while it is alive.
func (e *Engine) deadErr(rank int) error {
	if rank == AnySource || rank == e.rank {
		return nil
	}
	return e.dead[rank]
}

// DeadErr reports the recorded death reason for rank, nil while it is
// alive — the typed error native collective paths (outside the matched
// request machinery) return when a dead member makes them uncompletable.
func (e *Engine) DeadErr(rank int) error { return e.deadErr(rank) }

// PeerDead reports whether rank has been declared dead at this engine.
func (e *Engine) PeerDead(rank int) bool {
	_, ok := e.dead[rank]
	return ok
}

// DeadRanks reports every rank declared dead at this engine, in detection
// order.
func (e *Engine) DeadRanks() []int { return slices.Clone(e.deadOrder) }

// FailureAck acknowledges every currently detected death: wildcard
// receives posted afterwards no longer fail with ErrPeerDown for those
// ranks (ULFM's MPI_Comm_failure_ack).
func (e *Engine) FailureAck() { e.ackedDead = len(e.deadOrder) }

// FailureAcked reports the dead ranks covered by the latest FailureAck, in
// detection order (ULFM's MPI_Comm_failure_get_acked).
func (e *Engine) FailureAcked() []int { return slices.Clone(e.deadOrder[:e.ackedDead]) }

// ftActive reports whether any fault-tolerance event (death or revoke) has
// occurred: stale protocol packets racing such an event are expected and
// dropped silently instead of being recorded as protocol errors.
func (e *Engine) ftActive() bool { return len(e.dead) > 0 || len(e.revoked) > 0 }

// ftSendCheck fast-fails a send on a revoked context or to a dead rank.
func (e *Engine) ftSendCheck(dst, ctx int) error {
	if e.revoked[ctx] {
		return Errorf(ErrRevoked, "communicator context %d revoked", ctx)
	}
	return e.deadErr(dst)
}

// ftRecvCheck fast-fails a receive on a revoked context, from a dead rank,
// or a wildcard receive while an unacknowledged death is outstanding (the
// dead rank may have been the only possible sender — the caller must
// FailureAck to keep using wildcards, per ULFM).
func (e *Engine) ftRecvCheck(src, ctx int) error {
	if e.revoked[ctx] {
		return Errorf(ErrRevoked, "communicator context %d revoked", ctx)
	}
	if src == AnySource {
		if len(e.deadOrder) > e.ackedDead {
			return Errorf(ErrPeerDown, "wildcard receive with unacknowledged dead peer rank %d", e.deadOrder[e.ackedDead])
		}
		return nil
	}
	return e.deadErr(src)
}

// RevokeCtx poisons communicator context ctx (and its collective sibling
// ctx+1) at this rank and reliably broadcasts the revocation: every
// pending operation on the contexts completes with ErrRevoked and all
// future ones fail fast, on every survivor, within bounded simulated time.
// A dead rank (killed, or its wire fatal) revokes nothing and sends
// nothing: it gets its death error, as from every other call.
func (e *Engine) RevokeCtx(p *sim.Proc, ctx int) error {
	if e.fatal != nil {
		return e.fatal
	}
	if e.markRevoked(ctx) {
		e.bcastRevoke(p, ctx)
	}
	return nil
}

// revokeMsg handles an incoming PktRevoke. Re-forwarding on first receipt
// makes the broadcast reliable: as long as one survivor heard the notice,
// every survivor eventually does, even if the revoker dies mid-broadcast.
func (e *Engine) revokeMsg(p *sim.Proc, env Envelope) {
	if e.markRevoked(env.Context) {
		e.bcastRevoke(p, env.Context)
	}
}

// markRevoked records the revocation of ctx and its collective sibling
// ctx+1, failing every pending request on either context. It reports
// whether the revocation was fresh (negative contexts — the recovery
// channel Agree and Shrink run on — are never revocable).
func (e *Engine) markRevoked(ctx int) bool {
	if ctx < 0 || e.revoked[ctx] {
		return false
	}
	if e.revoked == nil {
		e.revoked = make(map[int]bool)
	}
	e.revoked[ctx] = true
	e.revoked[ctx+1] = true
	e.acct.Add(ctrRevoke, 1)
	reason := Errorf(ErrRevoked, "communicator context %d revoked", ctx)
	for _, r := range e.tabledInOrder() {
		if r.Env.Context != ctx && r.Env.Context != ctx+1 {
			continue
		}
		if r.IsRecv && !r.matched {
			e.match.CancelRecv(r)
		}
		r.complete(Status{}, reason)
		e.untable(r)
	}
	e.cond.Broadcast()
	return true
}

// bcastRevoke sends the revocation notice to every live peer.
func (e *Engine) bcastRevoke(p *sim.Proc, ctx int) {
	for dst := 0; dst < e.size; dst++ {
		if dst == e.rank {
			continue
		}
		if _, dd := e.dead[dst]; dd {
			continue
		}
		e.control(p, dst, PktRevoke, Envelope{Source: e.rank, Dest: dst, Context: ctx})
	}
}
