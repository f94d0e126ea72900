// Package mpi is the public API of the reproduction: an MPI-1 style
// message-passing library with point-to-point communication in all four
// send modes (standard, buffered, synchronous, ready; blocking and
// nonblocking), probes, persistent requests, derived datatypes,
// communicator management, and collective operations, running over either
// modeled platform (Meiko CS/2 or the ATM/Ethernet cluster — see the
// platform packages).
//
// Programs are written as a rank body func(*Comm) error; the platform
// runners spawn one simulated process per rank and hand each its
// world communicator. Time inside a rank body is virtual: Wtime reads the
// simulation clock and Compute models application computation.
package mpi

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Wildcards, re-exported from the engine.
const (
	AnySource = core.AnySource
	AnyTag    = core.AnyTag
)

// Status describes a completed receive.
type Status = core.Status

// Tuning maps collective operation names to forced algorithm names — the
// type of World.Tune. A nil Tuning auto-selects every operation by message
// size, communicator size, and platform capability.
type Tuning = coll.Tuning

// ParseTuning parses "op=alg,op=alg" (e.g. "bcast=binomial,allreduce=rsag")
// into a Tuning, validating both operation and algorithm names against the
// registry — a typo reports the available listing instead of silently
// auto-selecting.
func ParseTuning(s string) (Tuning, error) { return coll.ParseTuning(s) }

// World owns the per-rank endpoints of one job and the shared communicator
// state (context-id allocation). It is created by the platform runners.
type World struct {
	// S is the scheduler the world was built on (see sim.NewKernel): rank r
	// lives on S.Node(r, Size()), and Launch drives S.Shard() when S is a
	// shard lane, S itself otherwise.
	S *sim.Scheduler
	// Tune forces collective algorithms by registered name, per operation
	// (see ParseTuning) — the one way to pin an algorithm. Operations
	// without an entry auto-select by message size, communicator size, and
	// platform capability. Set it before Launch: each rank's communicator
	// reads it once.
	Tune Tuning
	// FTDetect is the failure-detection latency the platform wired in: how
	// long after a scheduled kill each survivor declares the victim dead
	// (see ScheduleKills). Platform builders calibrate it to the transport's
	// loss-recovery horizon; zero falls back to a 100 µs default.
	FTDetect sim.Duration
	eps      []core.Endpoint
	hw       []core.HWBcaster // each rank's hardware broadcast; nil when no endpoint has one
	mu       sync.Mutex       // guards nextCtx (ranks may run on parallel lanes)
	nextCtx  int
	// shrinkCtxs memoizes the context pair agreed for each (parent context,
	// dead set) so every survivor of a Shrink picks the same fresh contexts
	// without communicating over the (possibly revoked) parent.
	shrinkCtxs map[string]int
	// scratch is each rank's collective scratch (coll.Scratch), indexed by
	// world rank and touched only by that rank's process.
	scratch []coll.Scratch

	// group is the world communicator's identity rank mapping, built once
	// and shared read-only by every rank's Comm — at thousands of ranks,
	// per-rank copies cost O(n²) memory and blow the cache on every
	// worldRank translation.
	group []int
}

// NewWorld wraps endpoints (one per rank, indexed by rank, each built on
// its rank's node scheduler) into a world.
func NewWorld(s *sim.Scheduler, eps []core.Endpoint) *World {
	w := &World{S: s, eps: eps, nextCtx: 2, group: make([]int, len(eps)), scratch: make([]coll.Scratch, len(eps))}
	for i, ep := range eps {
		w.group[i] = i
		if hb, ok := ep.(core.HWBcaster); ok {
			if w.hw == nil {
				w.hw = make([]core.HWBcaster, len(eps))
			}
			w.hw[i] = hb
		}
	}
	return w
}

// Sched reports the scheduler that owns rank r.
func (w *World) Sched(r int) *sim.Scheduler { return w.S.Node(r, len(w.eps)) }

// Size reports the number of ranks.
func (w *World) Size() int { return len(w.eps) }

// Traceable endpoints can emit message timelines (the profiling
// interface); both engine flavors implement it.
type Traceable interface {
	SetTrace(*trace.Log)
}

// EnableTrace attaches a fresh trace log to every traceable endpoint and
// returns it.
func (w *World) EnableTrace() *trace.Log {
	l := &trace.Log{}
	for _, ep := range w.eps {
		if t, ok := ep.(Traceable); ok {
			t.SetTrace(l)
		}
	}
	return l
}

// allocCtxPair hands out a fresh (point-to-point, collective) context-id
// pair. Callers must invoke it from exactly one rank per communicator
// creation and distribute the result (Dup/Split do this at their root),
// mirroring how real implementations agree on context ids. The mutex makes
// concurrent creations from different communicators safe when ranks run on
// parallel shard lanes (ids are agreed over messages, so allocation order
// never affects timing).
//
// Once the next pair would pass core.MaxContext — where the matcher's and
// the MPICH tag's 16 context bits fold a communicator onto recoveryCtx — it
// returns ctxExhausted instead, for good: the creating call distributes
// that like an id and fails on every rank (errCtxExhausted) rather than
// cross-matching recovery traffic.
func (w *World) allocCtxPair() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.takeCtxPair()
}

// takeCtxPair is allocCtxPair with w.mu held (shrinkCtx memoizes under the
// same lock).
func (w *World) takeCtxPair() int {
	c := w.nextCtx
	if c+1 > core.MaxContext {
		return ctxExhausted
	}
	w.nextCtx += 2
	return c
}

// ctxExhausted stands in for a context id when none is left. It is neither
// −1, Split's "no communicator for this rank", nor recoveryCtx.
const ctxExhausted = -3

func errCtxExhausted() error {
	return core.Errorf(core.ErrInternal, "out of context ids: a communicator past id %d would alias the recovery context in the matcher's 16-bit key", core.MaxContext)
}

// Comm binds one rank's endpoint to a communicator (a context-id pair and
// a group mapping communicator ranks to world ranks).
type Comm struct {
	w     *World
	p     *sim.Proc
	ep    core.Endpoint
	ctx   int         // point-to-point context; ctx+1 is the collective context
	group []int       // comm rank -> world rank
	rank  int         // this process's rank in the communicator
	tune  coll.Tuning // effective collective tuning, inherited by Dup/Split
}

// newRankComm builds rank r's world communicator.
// The identity group is shared across ranks (communicator groups are
// read-only after creation; Dup/Split build fresh ones).
func newRankComm(w *World, r int, p *sim.Proc) *Comm {
	return &Comm{w: w, p: p, ep: w.eps[r], ctx: 0, group: w.group, rank: r, tune: w.Tune}
}

// Rank reports the calling process's rank in the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size reports the communicator size.
func (c *Comm) Size() int { return len(c.group) }

// WorldRank reports the calling process's rank in the world.
func (c *Comm) WorldRank() int { return c.ep.Rank() }

// Proc exposes the rank's simulated process (for platform integration).
func (c *Comm) Proc() *sim.Proc { return c.p }

// Endpoint exposes the underlying device endpoint.
func (c *Comm) Endpoint() core.Endpoint { return c.ep }

// Wtime reports elapsed virtual time, like MPI_Wtime.
func (c *Comm) Wtime() time.Duration { return c.p.Now().Duration() }

// Compute models local computation taking d of virtual time.
func (c *Comm) Compute(d time.Duration) {
	c.ep.Acct().Spend(c.p, sim.Compute, d)
}

// Acct exposes this rank's cost account.
func (c *Comm) Acct() *core.Acct { return c.ep.Acct() }

// world rank of communicator rank r, with wildcard passthrough.
func (c *Comm) worldRank(r int) (int, error) {
	if r == AnySource {
		return AnySource, nil
	}
	if r < 0 || r >= len(c.group) {
		return 0, core.Errorf(core.ErrInternal, "rank %d out of range for communicator of size %d", r, len(c.group))
	}
	return c.group[r], nil
}

// peer is worldRank plus the tag check every point-to-point path shares.
// The matcher's packed bin key cannot tell a tag outside [0, core.MaxTag]
// from another tag or from the wildcard, so such a tag is an error; anyTag
// admits AnyTag, for receives and probes.
func (c *Comm) peer(r, tag int, anyTag bool) (int, error) {
	if (tag < 0 || tag > core.MaxTag) && !(anyTag && tag == AnyTag) {
		return 0, core.Errorf(core.ErrInternal, "tag %d out of range [0, %d]", tag, core.MaxTag)
	}
	return c.worldRank(r)
}

// commRank translates a world rank in a Status back to a communicator rank.
// Wherever the group is the identity at world — every rank of a world
// communicator or a Dup of one — that is the answer without the scan.
func (c *Comm) commRank(world int) int {
	if world >= 0 && world < len(c.group) && c.group[world] == world {
		return world
	}
	for i, wr := range c.group {
		if wr == world {
			return i
		}
	}
	return -1
}

func (c *Comm) fixStatus(st Status) Status {
	st.Source = c.commRank(st.Source)
	return st
}

// BufferAttach provides buffered-send space (MPI_Buffer_attach).
func (c *Comm) BufferAttach(n int) { c.ep.BufferAttach(n) }

// BufferDetach removes the buffered-send buffer, returning its size.
func (c *Comm) BufferDetach() int { return c.ep.BufferDetach() }

// String identifies the communicator in traces.
func (c *Comm) String() string {
	return fmt.Sprintf("comm(ctx=%d rank=%d/%d)", c.ctx, c.rank, len(c.group))
}
