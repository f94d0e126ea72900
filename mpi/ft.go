package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
)

// ULFM-style fault tolerance (User-Level Failure Mitigation): a process
// death is survivable. The platform injects deaths on a simulated-time
// schedule (ScheduleKills); each survivor's engine declares the victim
// dead after the backend's detection latency and fails exactly the
// operations that can never complete. Applications then recover with the
// ULFM triple: Revoke poisons the broken communicator on every survivor,
// Agree reaches consensus across the survivors, and Shrink builds a dense
// working communicator from them.

// recoveryCtx is the dedicated point-to-point context Agree and Shrink
// exchange on. It is negative, which the engine treats as never revocable:
// recovery traffic must flow even while every user communicator is
// poisoned.
const recoveryCtx = -2

// defaultFTDetect is the detection latency when the platform set none.
const defaultFTDetect = 100 * time.Microsecond

// ftEndpoint is the engine surface fault tolerance needs. The poll-model
// engine implements it on every platform; the MPICH-over-tport baseline
// does not (the co-processor owns matching, so the host library cannot
// fail requests per-peer), which ScheduleKills reports as a typed error.
type ftEndpoint interface {
	core.Endpoint
	Kill(error)
	PeerDown(rank int, reason error)
	PeerDead(rank int) bool
	DeadRanks() []int
	FailureAck()
	FailureAcked() []int
	RevokeCtx(p *sim.Proc, ctx int) error
}

// IsPeerDown reports whether err carries the typed peer-death code: the
// operation failed because a specific peer process died, not because of a
// program bug or a link failure. Survivors branch on this to enter the
// Revoke/Agree/Shrink recovery path.
func IsPeerDown(err error) bool {
	var ce *core.Error
	return errors.As(err, &ce) && ce.Code == core.ErrPeerDown
}

// IsRevoked reports whether err carries the typed revocation code: the
// communicator was poisoned by Comm.Revoke (here or at a peer) and every
// operation on it fails fast. The communicator's group may be fine — the
// revoke is a control signal; rebuild with Shrink.
func IsRevoked(err error) bool {
	var ce *core.Error
	return errors.As(err, &ce) && ce.Code == core.ErrRevoked
}

// ScheduleKills installs a fault schedule: each entry kills one rank at a
// simulated time. The victim's engine turns fatal and closes at exactly At
// on its own lane's clock (Engine.Kill), so nothing it sent is
// retransmitted after its death, and every survivor independently
// declares the victim dead at At+FTDetect — a scheduled deadline, not
// heartbeat traffic, so detection is deterministic, lane-safe, and costs
// zero messages when no faults are configured. It fails with a typed error on endpoints that
// cannot fail requests per-peer (the MPICH-over-tport baseline).
func (w *World) ScheduleKills(kills []atm.Kill) error {
	if len(kills) == 0 {
		return nil
	}
	fts := make([]ftEndpoint, len(w.eps))
	for i, ep := range w.eps {
		ft, ok := ep.(ftEndpoint)
		if !ok {
			return core.Errorf(core.ErrInternal, "endpoint %T does not support fault tolerance (kill schedules need the poll-model engine)", ep)
		}
		fts[i] = ft
	}
	detect := w.FTDetect
	if detect <= 0 {
		detect = defaultFTDetect
	}
	for _, k := range kills {
		if k.Rank < 0 || k.Rank >= len(w.eps) {
			return core.Errorf(core.ErrInternal, "kill schedule names rank %d of a %d-rank world", k.Rank, len(w.eps))
		}
		victim := fts[k.Rank]
		reason := core.Errorf(core.ErrPeerDown, "rank %d killed at %v by fault schedule", k.Rank, k.At)
		w.Sched(k.Rank).After(k.At, func() { victim.Kill(reason) })
		for r := range w.eps {
			if r == k.Rank {
				continue
			}
			surv := fts[r]
			rank := k.Rank
			w.Sched(r).After(k.At+detect, func() { surv.PeerDown(rank, reason) })
		}
	}
	return nil
}

// shrinkCtx hands out the context pair for the shrink of parent described
// by key, memoized so every survivor picks the same contexts without a
// bootstrap broadcast over the (typically revoked) parent. The context
// value is a pure matching label — which number a racing pair of distinct
// shrinks draws never affects timing — so the mutex is enough even on
// parallel lanes.
func (w *World) shrinkCtx(key string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.shrinkCtxs == nil {
		w.shrinkCtxs = make(map[string]int)
	}
	if ctx, ok := w.shrinkCtxs[key]; ok {
		return ctx
	}
	ctx := w.takeCtxPair()
	if ctx != ctxExhausted { // no need to memoize that: every later caller runs out too
		w.shrinkCtxs[key] = ctx
	}
	return ctx
}

// ft asserts the communicator's endpoint supports fault tolerance.
func (c *Comm) ft() (ftEndpoint, error) {
	ft, ok := c.ep.(ftEndpoint)
	if !ok {
		return nil, core.Errorf(core.ErrInternal, "endpoint %T does not support fault tolerance", c.ep)
	}
	return ft, nil
}

// Revoke poisons the communicator (ULFM's MPI_Comm_revoke): every pending
// and future operation on it fails with a revoked error, at this rank
// immediately and at every survivor within bounded simulated time via a
// reliable broadcast (each rank re-forwards the notice on first receipt,
// so the revocation completes even if the revoker dies mid-broadcast).
// Not collective — any member may revoke after spotting a failure; peers
// hung inside a collective on this communicator are woken with the error
// instead of waiting forever on a dead partner's contribution. A killed
// rank revokes nothing: it gets its own death error, as from every other
// call, and no notice leaves it.
func (c *Comm) Revoke() error {
	ft, err := c.ft()
	if err != nil {
		return err
	}
	return ft.RevokeCtx(c.p, c.ctx)
}

// Dead reports whether this rank's own process has been killed by the
// fault schedule. A killed process keeps executing its body — the
// simulation of death is that every communication it attempts fails with
// its own death reason — so fault-aware applications use Dead to tell "I
// died" from "a peer died" and bow out instead of entering recovery.
func (c *Comm) Dead() bool {
	f, ok := c.ep.(interface{ FatalErr() error })
	return ok && f.FatalErr() != nil
}

// FailureAck acknowledges all currently detected process failures (ULFM's
// MPI_Comm_failure_ack): wildcard receives posted after the call stop
// failing for the acknowledged deaths.
func (c *Comm) FailureAck() error {
	ft, err := c.ft()
	if err != nil {
		return err
	}
	ft.FailureAck()
	return nil
}

// FailureAcked reports the communicator ranks covered by the latest
// FailureAck, in detection order (ULFM's MPI_Comm_failure_get_acked).
func (c *Comm) FailureAcked() ([]int, error) {
	ft, err := c.ft()
	if err != nil {
		return nil, err
	}
	var out []int
	for _, wr := range ft.FailureAcked() {
		if cr := c.commRank(wr); cr >= 0 {
			out = append(out, cr)
		}
	}
	return out, nil
}

// Agree reaches agreement across the communicator's survivors on the
// bitwise AND of flag (ULFM's MPI_Comm_agree), merging every member's
// knowledge of dead ranks along the way. It runs on the dedicated
// recovery context, so it works on a revoked communicator — that is the
// point: Revoke first, then Agree/Shrink to rebuild.
func (c *Comm) Agree(flag uint64) (uint64, error) {
	out, _, err := c.agree(flag)
	return out, err
}

// agree is the dissemination consensus under Agree and Shrink: two sweeps
// of the Bruck pattern (round k sends to rank+2^k, receives from
// rank-2^k, over the original group) carrying a dead-rank bitmap
// (OR-merged) and the flag word (AND-merged). Survivors detect each
// scheduled death at the same simulated instant, so their dead sets agree
// when the exchange starts and the skip decisions stay symmetric; rounds
// that race a fresh death degrade gracefully (a peer-down exchange is
// treated as contributing nothing). The payload is far below every
// backend's eager threshold.
func (c *Comm) agree(flag uint64) (uint64, []bool, error) {
	ft, err := c.ft()
	if err != nil {
		return 0, nil, err
	}
	n := len(c.group)
	dead := make([]bool, n) // by communicator rank
	for _, wr := range ft.DeadRanks() {
		if cr := c.commRank(wr); cr >= 0 {
			dead[cr] = true
		}
	}
	if n == 1 {
		return flag, dead, nil
	}
	rounds := 0
	for 1<<rounds < n {
		rounds++
	}
	nb := (n + 7) / 8
	inbuf := make([]byte, nb+8)
	for sweep := 0; sweep < 2; sweep++ {
		for k := 0; k < rounds; k++ {
			to := (c.rank + 1<<k) % n
			from := ((c.rank-1<<k)%n + n) % n
			// Tag space: one slot per (parent context, sweep, round), so
			// concurrent recoveries of different communicators never cross.
			tag := c.ctx*256 + sweep*128 + k
			payload := make([]byte, nb+8)
			for i := 0; i < n; i++ {
				if dead[i] {
					payload[i/8] |= 1 << (i % 8)
				}
			}
			binary.LittleEndian.PutUint64(payload[nb:], flag)
			var sr, rr *core.Request
			if from != c.rank && !dead[from] {
				if rr, err = ft.Irecv(c.p, c.group[from], tag, recoveryCtx, inbuf); err != nil {
					if !IsPeerDown(err) {
						return 0, nil, err
					}
					rr = nil
				}
			}
			if to != c.rank && !dead[to] {
				if sr, err = ft.Isend(c.p, c.group[to], tag, recoveryCtx, core.ModeStandard, payload); err != nil && !IsPeerDown(err) {
					return 0, nil, err
				}
			}
			if sr != nil {
				if _, werr := ft.Wait(c.p, sr); werr != nil && !IsPeerDown(werr) {
					return 0, nil, werr
				}
			}
			if rr != nil {
				if _, werr := ft.Wait(c.p, rr); werr == nil {
					for i := 0; i < n; i++ {
						if inbuf[i/8]&(1<<(i%8)) != 0 {
							dead[i] = true
						}
					}
					flag &= binary.LittleEndian.Uint64(inbuf[nb:])
				} else if !IsPeerDown(werr) {
					return 0, nil, werr
				}
			}
		}
	}
	return flag, dead, nil
}

// Shrink builds a working communicator from the survivors (ULFM's
// MPI_Comm_shrink): the members not agreed dead, densely re-ranked in
// their original communicator order, on fresh contexts every survivor
// derives without touching the revoked parent. Collective over the
// survivors. The usual recovery sequence, from the rank that caught the
// failure first to the ranks woken out of a collective by the revoke:
//
//	err := comm.AllreduceInt64(mpi.SumInt64, contrib, sum)
//	if mpi.IsPeerDown(err) {
//		comm.Revoke() // wake peers hung on the dead rank's contribution
//	}
//	if mpi.IsPeerDown(err) || mpi.IsRevoked(err) {
//		smaller, serr := comm.Shrink()
//		if serr != nil {
//			return serr
//		}
//		sum = make([]int64, len(contrib)) // the failed call's receives may still target the old one
//		err = smaller.AllreduceInt64(mpi.SumInt64, contrib, sum) // survivors finish
//	}
func (c *Comm) Shrink() (*Comm, error) {
	_, dead, err := c.agree(0)
	if err != nil {
		return nil, err
	}
	group := make([]int, 0, len(c.group))
	newRank := -1
	for r, wr := range c.group {
		if dead[r] {
			continue
		}
		if r == c.rank {
			newRank = len(group)
		}
		group = append(group, wr)
	}
	if newRank < 0 {
		return nil, core.Errorf(core.ErrInternal, "shrink called from a rank agreed dead")
	}
	// Every survivor computes the same key (the agreed dead set over the
	// same parent), so the memo hands all of them the same context pair.
	key := fmt.Sprintf("%d|%v", c.ctx, dead)
	ctx := c.w.shrinkCtx(key)
	if ctx == ctxExhausted {
		return nil, errCtxExhausted()
	}
	return &Comm{w: c.w, p: c.p, ep: c.ep, ctx: ctx, group: group, rank: newRank, tune: c.tune}, nil
}
