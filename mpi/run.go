package mpi

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Report summarizes one job run.
type Report struct {
	// Elapsed is the virtual time at which the whole simulation drained.
	Elapsed sim.Duration
	// RankElapsed is each rank's virtual finish time.
	RankElapsed []sim.Duration
	// MaxRankElapsed is the slowest rank's finish time — the job's
	// wall-clock in the paper's figures.
	MaxRankElapsed sim.Duration
	// Errs holds the per-rank body errors (nil entries for success).
	Errs []error
	// Acct is the merged cost account across ranks, its string view filled.
	Acct *core.Acct
	// RankAccts are the per-rank accounts (by world rank; see core.Acct.View).
	RankAccts []*core.Acct
	// Protocol collects asynchronous protocol errors recorded at any rank
	// (e.g. a ready-mode send that arrived before its receive was posted)
	// — erroneous-program conditions MPI cannot attach to a call.
	Protocol []error
	// Events is the total simulation events the run executed.
	Events uint64
	// Dispatches is how many times a rank's proc was handed the execution
	// token, summed over lanes: the coroutine switches the run paid for.
	Dispatches uint64
	// Shard holds the control-plane counters when the world ran on shard
	// lanes; nil on a standalone scheduler.
	Shard *sim.ShardStats
}

// IsLinkDown reports whether err carries the typed link-failure code a
// transport raises when a peer becomes unreachable — the one failure an
// application may want to distinguish from its own bugs.
func IsLinkDown(err error) bool {
	var ce *core.Error
	return errors.As(err, &ce) && ce.Code == core.ErrLinkDown
}

// FirstErr reports the first per-rank error, if any.
func (r *Report) FirstErr() error {
	for _, e := range r.Errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Launch spawns one simulated process per rank running body, drives the
// simulation to completion, and gathers the report. Deadlocks in the
// application (e.g. mismatched sends/receives) surface as the returned
// error, naming the parked ranks.
func Launch(w *World, body func(c *Comm) error) (*Report, error) {
	n := w.Size()
	rep := &Report{
		RankElapsed: make([]sim.Duration, n),
		Errs:        make([]error, n),
		RankAccts:   make([]*core.Acct, n),
	}
	for i := 0; i < n; i++ {
		i := i
		w.Sched(i).Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			p.Ledger = &w.eps[i].Acct().Ledger
			c := newRankComm(w, i, p)
			rep.Errs[i] = body(c)
			if rep.Errs[i] == nil {
				// MPI_Finalize: drain transfers this process still owes
				// (e.g. buffered sends awaiting their rendezvous CTS).
				w.eps[i].Finalize(p)
			}
			rep.RankElapsed[i] = p.Now().Duration()
		})
	}
	// One kernel, two drivers: a shard's epoch loop when the world was built
	// on lanes, the scheduler's own Run otherwise.
	var kernel interface {
		Run() (sim.Time, error)
		Shutdown()
		Events() uint64
		Dispatches() uint64
	} = w.S
	sh := w.S.Shard()
	if sh != nil {
		kernel = sh
	}
	// Reap parked ranks however Run ends — an error (deadlock, limit), or a
	// rank-body panic or Goexit unwinding through it — so a failed run does
	// not leak their coroutines. After a clean run this is a no-op.
	defer kernel.Shutdown()
	end, err := kernel.Run()
	rep.Events, rep.Dispatches = kernel.Events(), kernel.Dispatches()
	if sh != nil {
		st := sh.Stats()
		rep.Shard = &st
	}
	rep.Elapsed = end.Duration()
	sum := core.NewAcct()
	for i := 0; i < n; i++ {
		if rep.RankElapsed[i] > rep.MaxRankElapsed {
			rep.MaxRankElapsed = rep.RankElapsed[i]
		}
		rep.RankAccts[i] = w.eps[i].Acct()
		sum.Merge(rep.RankAccts[i])
		if pe, ok := w.eps[i].(interface{ ProtocolErrors() []error }); ok {
			rep.Protocol = append(rep.Protocol, pe.ProtocolErrors()...)
		}
	}
	rep.Acct = sum.View()
	if err != nil {
		return rep, err
	}
	return rep, rep.FirstErr()
}
