package apps

import (
	"time"

	"repro/mpi"
)

// FTShrinkConfig parameterizes the fault-tolerant allreduce demo.
type FTShrinkConfig struct {
	// Compute is a per-rank computation phase before the collective,
	// giving a kill schedule a window to land mid-run.
	Compute time.Duration
}

// FTShrinkResult reports one rank's view of the run.
type FTShrinkResult struct {
	Died       bool          // this rank was killed by the fault schedule
	Shrunk     bool          // recovery ran: revoke, agree, shrink
	Shrinks    int           // recovery rounds (one per shrink; >1 under multi-failure)
	Survivors  int           // communicator size the final answer came from
	NewRank    int           // this rank's position in that communicator
	Sum        int64         // the allreduce result (survivor contributions)
	Elapsed    time.Duration // virtual time from entry to answer
	DetectedAt time.Duration // virtual time the first failure was observed (0 if clean)
	ShrunkAt   time.Duration // virtual time the last shrunken communicator was ready
}

// FTShrink runs the ULFM recovery loop as an application: every rank
// contributes rank+1 to a sum-allreduce; when a member dies mid-collective
// the survivors revoke the communicator, shrink to the agreed-live
// membership, and retry the reduction there — looping, so failures that
// land during recovery (or a second scheduled kill) just trigger another
// round. A killed rank reports Died and returns no error — its death is
// the injected fault, not an application failure.
func FTShrink(c *mpi.Comm, cfg FTShrinkConfig) (FTShrinkResult, error) {
	res := FTShrinkResult{Survivors: c.Size(), NewRank: c.Rank()}
	start := c.Wtime()
	if cfg.Compute > 0 {
		c.Compute(cfg.Compute)
	}
	contrib := []int64{int64(c.Rank()) + 1}
	cur := c
	for {
		sum := make([]int64, 1) // fresh per attempt: a failed one's receives may still target the last
		err := cur.AllreduceInt64(mpi.SumInt64, contrib, sum)
		if err == nil {
			res.Sum = sum[0]
			res.Elapsed = c.Wtime() - start
			return res, nil
		}
		if c.Dead() {
			res.Died = true
			return res, nil
		}
		if res.DetectedAt == 0 {
			res.DetectedAt = c.Wtime()
		}
		switch {
		case mpi.IsPeerDown(err):
			// We saw the death first: poison the communicator so peers
			// hung on the dead rank's contribution are woken with an
			// error instead of waiting forever.
			if rerr := cur.Revoke(); rerr != nil {
				return res, rerr
			}
		case mpi.IsRevoked(err):
			// A peer revoked first; fall through to the rebuild.
		default:
			return res, err
		}
		if res.Shrinks >= c.Size() {
			return res, err // more rounds than members: something is wrong
		}
		smaller, serr := cur.Shrink()
		if serr != nil {
			return res, serr
		}
		cur = smaller
		res.Shrunk = true
		res.Shrinks++
		res.Survivors = cur.Size()
		res.NewRank = cur.Rank()
		res.ShrunkAt = c.Wtime()
	}
}
