package mpi_test

import (
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/mpi"
)

func memWorld(t *testing.T, n int) *mpi.World {
	t.Helper()
	s := sim.NewScheduler(1)
	fab := core.NewMemFabric(s, time.Microsecond, 180)
	eps := make([]core.Endpoint, n)
	for i := range eps {
		e := core.NewEngine(s, i, n, core.EngineCosts{})
		fab.Attach(e)
		eps[i] = e
	}
	w := mpi.NewWorld(s, eps)
	w.FTDetect = 10 * time.Microsecond
	return w
}

// TestShrinkAllreduceSurvivesKill is the core ULFM loop: kill one rank mid
// allreduce, survivors revoke, shrink, and finish the reduction on the
// shrunken communicator with the correct survivor-only sum.
func TestShrinkAllreduceSurvivesKill(t *testing.T) {
	const n, victim = 4, 2
	w := memWorld(t, n)
	if err := w.ScheduleKills([]atm.Kill{{Rank: victim, At: 50 * time.Microsecond}}); err != nil {
		t.Fatalf("ScheduleKills: %v", err)
	}
	wantSum := int64(0)
	for r := 0; r < n; r++ {
		if r != victim {
			wantSum += int64(r)
		}
	}
	rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
		contrib := []int64{int64(c.Rank())}
		if c.Rank() == victim {
			// Nap past the kill so the survivors are parked inside the
			// collective waiting on our contribution when the death lands;
			// our own call then fails with our death reason.
			c.Compute(100 * time.Microsecond)
			aerr := c.AllreduceInt64(mpi.SumInt64, contrib, make([]int64, 1))
			if aerr == nil {
				t.Errorf("victim allreduce succeeded past its own death")
			}
			return nil
		}
		aerr := c.AllreduceInt64(mpi.SumInt64, contrib, make([]int64, 1))
		switch {
		case mpi.IsPeerDown(aerr):
			if rerr := c.Revoke(); rerr != nil {
				return rerr
			}
		case mpi.IsRevoked(aerr):
			// A peer spotted the death first and revoked; proceed.
		case aerr == nil:
			t.Errorf("rank %d: allreduce succeeded despite dead member", c.Rank())
		default:
			return aerr
		}
		smaller, serr := c.Shrink()
		if serr != nil {
			return serr
		}
		if smaller.Size() != n-1 {
			t.Errorf("rank %d: shrunken size = %d, want %d", c.Rank(), smaller.Size(), n-1)
		}
		sum := make([]int64, 1)
		if aerr := smaller.AllreduceInt64(mpi.SumInt64, contrib, sum); aerr != nil {
			return aerr
		}
		if sum[0] != wantSum {
			t.Errorf("rank %d: survivor sum = %d, want %d", c.Rank(), sum[0], wantSum)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Launch: %v (errs %v)", err, rep.Errs)
	}
}

// TestAgreeMergesFlags checks the AND semantics and the dead-set merge.
func TestAgreeMergesFlags(t *testing.T) {
	const n, victim = 5, 1
	w := memWorld(t, n)
	if err := w.ScheduleKills([]atm.Kill{{Rank: victim, At: 5 * time.Microsecond}}); err != nil {
		t.Fatalf("ScheduleKills: %v", err)
	}
	if _, err := mpi.Launch(w, func(c *mpi.Comm) error {
		if c.Rank() == victim {
			c.Compute(time.Millisecond) // die during the nap
			return nil
		}
		c.Compute(100 * time.Microsecond) // everyone past the detection deadline
		flag, err := c.Agree(0xff &^ uint64(1<<c.Rank()))
		if err != nil {
			return err
		}
		// AND of 0xff minus each survivor's own bit.
		want := uint64(0xff)
		for r := 0; r < n; r++ {
			if r != victim {
				want &^= 1 << r
			}
		}
		if flag != want {
			t.Errorf("rank %d: agree flag = %#x, want %#x", c.Rank(), flag, want)
		}
		return nil
	}); err != nil {
		t.Fatalf("Launch: %v", err)
	}
}

// TestWildcardRecvFailsUntilAck checks the ULFM wildcard rule: a pending
// any-source receive fails on a death, and new ones keep failing until the
// failure is acknowledged.
func TestWildcardRecvFailsUntilAck(t *testing.T) {
	const n, victim = 3, 2
	w := memWorld(t, n)
	if err := w.ScheduleKills([]atm.Kill{{Rank: victim, At: 20 * time.Microsecond}}); err != nil {
		t.Fatalf("ScheduleKills: %v", err)
	}
	if _, err := mpi.Launch(w, func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			buf := make([]byte, 8)
			// The wildcard receive is pending when rank 2 dies: it must fail
			// (the dead rank may have been the only sender).
			if _, rerr := c.Recv(mpi.AnySource, 7, buf); !mpi.IsPeerDown(rerr) {
				t.Errorf("pending wildcard recv: err = %v, want peer-down", rerr)
			}
			// Still failing before the ack, fine after.
			if _, rerr := c.Recv(mpi.AnySource, 7, buf); !mpi.IsPeerDown(rerr) {
				t.Errorf("pre-ack wildcard recv: err = %v, want peer-down", rerr)
			}
			if aerr := c.FailureAck(); aerr != nil {
				return aerr
			}
			if acked, _ := c.FailureAcked(); len(acked) != 1 || acked[0] != victim {
				t.Errorf("FailureAcked = %v, want [%d]", acked, victim)
			}
			if _, rerr := c.Recv(mpi.AnySource, 7, buf); rerr != nil {
				t.Errorf("post-ack wildcard recv: %v", rerr)
			}
			return nil
		case 1:
			c.Compute(200 * time.Microsecond) // past rank 0's ack
			return c.Send(0, 7, make([]byte, 8))
		default:
			c.Compute(time.Millisecond) // die napping
			return nil
		}
	}); err != nil {
		t.Fatalf("Launch: %v", err)
	}
}

// TestKillRejectedOnMPICH checks the typed error for endpoints that cannot
// fail requests per peer.
func TestSendToDeadPeerFailsFast(t *testing.T) {
	const n, victim = 2, 1
	w := memWorld(t, n)
	if err := w.ScheduleKills([]atm.Kill{{Rank: victim, At: 10 * time.Microsecond}}); err != nil {
		t.Fatalf("ScheduleKills: %v", err)
	}
	if _, err := mpi.Launch(w, func(c *mpi.Comm) error {
		if c.Rank() == victim {
			c.Compute(time.Millisecond)
			return nil
		}
		c.Compute(100 * time.Microsecond)
		if serr := c.Send(victim, 1, make([]byte, 4)); !mpi.IsPeerDown(serr) {
			t.Errorf("send to dead rank: err = %v, want peer-down", serr)
		}
		return nil
	}); err != nil {
		t.Fatalf("Launch: %v", err)
	}
}
