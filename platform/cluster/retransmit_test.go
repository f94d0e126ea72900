package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/workload"
	"repro/mpi"
	"repro/platform/registry"
)

// retransmits is what every rank of a cluster/udp run booked as
// rudp.retransmit: the frames its RUDP sent again.
func retransmits(rep *mpi.Report) int64 { return rep.Acct.Count["rudp.retransmit"] }

// pingPong5 is five n-byte round trips from rank 0 to rank 1.
func pingPong5(n int) func(c *mpi.Comm) error {
	return func(c *mpi.Comm) error {
		buf := make([]byte, n)
		for i := 0; i < 5; i++ {
			if c.Rank() == 0 {
				if err := c.Send(1, 0, buf); err != nil {
					return err
				}
				if _, err := c.Recv(1, 0, buf); err != nil {
					return err
				}
				continue
			}
			if _, err := c.Recv(0, 0, buf); err != nil {
				return err
			}
			if err := c.Send(0, 0, buf); err != nil {
				return err
			}
		}
		return nil
	}
}

// A loss-free wire never retransmits. Five pre-posted ping-pong iterations
// between two ranks, no fault knob set: each RUDP
// timer covers the bytes of its frame and of the frames queued ahead of it,
// so none expires before the frame can have landed and been acked. A timer
// learned from small frames alone fails every cell (ROADMAP item 3).
func TestLossFreeNeverRetransmits(t *testing.T) {
	for _, bytes := range []int{64 << 10, 256 << 10, 1 << 20} {
		w, _, err := build(registry.Spec{Ranks: 2}, "udp")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
			data, buf := make([]byte, bytes), make([]byte, bytes)
			peer := 1 - c.Rank()
			for i := 0; i < 5; i++ {
				r, err := c.Irecv(peer, 0, buf)
				if err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					if err := c.Send(peer, 0, data); err != nil {
						return err
					}
				}
				if _, err := r.Wait(); err != nil {
					return err
				}
				if c.Rank() == 1 {
					if err := c.Send(peer, 0, data); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := retransmits(rep); got != 0 {
			t.Errorf("%d B: %d frames retransmitted on a loss-free wire, want 0", bytes, got)
		}
	}
}

// The loss-free sweep: ping-pong from 1 B to 1 MiB, and the shuffle, halo,
// allreduce and stencil workloads at 3, 4, 8 and 16 ranks and 1 to 64 KiB,
// 74 cells. Every cell retransmits nothing except
// the one pinned at its count: there a data frame waits for a receiver
// that is inside a long copy of its own, so it cannot drain the frame and
// send the ack. That is the price of the poll-on-entry rule (a rank runs
// its protocol only inside MPI calls); pricing it against a progress agent
// is ROADMAP item 3(c).
func TestLossFreeSweepRetransmits(t *testing.T) {
	const busyReceiver = "busy receiver: the peer is inside a long copy of its own when the timer expires, " +
		"and under the poll-on-entry rule nothing drains for it (ROADMAP item 3(c))"
	pinned := map[string]struct {
		n     int64
		class string
	}{
		"allreduce/3/65536": {3, busyReceiver},
	}
	check := func(cell string, rep *mpi.Report, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		if got, want := retransmits(rep), pinned[cell]; got != want.n {
			t.Errorf("%s: %d frames retransmitted on a loss-free wire, want %d %s", cell, got, want.n, want.class)
		}
	}
	for _, n := range []int{1, 64, 1 << 10, 4 << 10, 16 << 10, 32 << 10, 64 << 10, 256 << 10, 512 << 10, 1 << 20} {
		w, _, err := build(registry.Spec{Ranks: 2}, "udp")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mpi.Launch(w, pingPong5(n))
		check(fmt.Sprintf("pingpong/2/%d", n), rep, err)
	}
	for _, pattern := range []string{"shuffle", "halo", "allreduce", "stencil"} {
		for _, ranks := range []int{3, 4, 8, 16} {
			for _, n := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
				w, _, err := build(registry.Spec{Ranks: ranks, Seed: 1}, "udp")
				if err != nil {
					t.Fatal(err)
				}
				res, err := workload.Run(w, workload.Config{Pattern: pattern, Ranks: ranks, Steps: 4, Bytes: n})
				var rep *mpi.Report
				if res != nil {
					rep = res.Report
				}
				check(fmt.Sprintf("%s/%d/%d", pattern, ranks, n), rep, err)
			}
		}
	}
}

// A rank that leaves Finalize is closed. On a 2-rank 16 KiB eager
// ping-pong, rank 0's last frame (34 B, a header-only credit return)
// reaches rank 1 after its body has returned: rank 1's RUDP acks and drops
// it in event context, so nothing is retransmitted, the link stays up and
// the run drains within one retransmission timer of the slower rank's
// finish. A rank left open instead gets the frame sent again 25 times, its
// peer's link declared dead and the run drained at 13.18 s.
func TestFinishedRankIsClosed(t *testing.T) {
	w, trs, err := build(registry.Spec{Ranks: 2}, "udp")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mpi.Launch(w, pingPong5(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trs {
		if err := tr.dgram.(*atm.RUDP).Err; err != nil {
			t.Errorf("rank %d: link error %v", i, err)
		}
	}
	if got := retransmits(rep); got != 0 {
		t.Errorf("%d frames retransmitted, want 0", got)
	}
	if rep.Elapsed > rep.MaxRankElapsed+10*time.Millisecond || len(rep.Protocol) != 0 {
		t.Errorf("Elapsed %v, MaxRankElapsed %v, Protocol %v; want the run drained within 10 ms of the slower rank and no protocol error",
			rep.Elapsed, rep.MaxRankElapsed, rep.Protocol)
	}
}

// A survivor after a finished peer. Rank 1 sends 16 KiB to rank 0 and
// returns; rank 0 receives it, computes for 20 s, then sends 8 B to rank 2
// and receives 8 B back, while rank 2 has waited in its receive all along.
// Rank 0's receive owes rank 1 a quarter of its reservation, so it sends an
// explicit credit return to a rank that has left MPI. Unless rank 1 is
// closed, nothing acks that frame: rank 0's RUDP retries it 25 times, its
// link is declared dead during the compute, and rank 2 is left parked for
// good. Every wire must complete with no retransmit and a live link.
func TestSurvivorAfterFinishedPeer(t *testing.T) {
	for _, kind := range []string{"tcp", "udp", "unet"} {
		w, trs, err := build(registry.Spec{Ranks: 3}, kind)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
			switch c.Rank() {
			case 0:
				if _, err := c.Recv(1, 0, make([]byte, 16<<10)); err != nil {
					return err
				}
				c.Compute(20 * time.Second)
				if err := c.Send(2, 0, make([]byte, 8)); err != nil {
					return err
				}
				_, err := c.Recv(2, 0, make([]byte, 8))
				return err
			case 1:
				return c.Send(0, 0, make([]byte, 16<<10))
			default:
				buf := make([]byte, 8)
				if _, err := c.Recv(0, 0, buf); err != nil {
					return err
				}
				return c.Send(0, 0, buf)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := retransmits(rep); got != 0 {
			t.Errorf("%s: %d frames retransmitted, want 0", kind, got)
		}
		for i, tr := range trs {
			if r, ok := tr.dgram.(*atm.RUDP); ok && r.Err != nil {
				t.Errorf("%s: rank %d link error %v", kind, i, r.Err)
			}
		}
	}
}

// A killed rank is closed at its kill instant, as a finished one is when it
// leaves Finalize. Rank 1 of a 2-rank udp job dies at 20 ms while sending
// 256 KiB to rank 0, which computes for 200 ms, acknowledges the failure
// and receives from it. Rank 1 must send nothing again after its death (a
// rank left open retransmitted its RTS 25 times to a survivor that had
// fenced it, until its link was declared dead), the run must drain when
// the last live rank finishes (13.43 s before, on that retry exhaustion),
// and the receive must fail with the death.
func TestKilledRankIsClosed(t *testing.T) {
	w, trs, err := build(registry.Spec{Ranks: 2}, "udp")
	if err != nil {
		t.Fatal(err)
	}
	kills, err := atm.ParseKills("1@20ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleKills(kills); err != nil {
		t.Fatal(err)
	}
	victim := trs[1].dgram.(*atm.RUDP)
	atKill := -1 // scheduled after the kill, so it runs just after it
	w.Sched(1).After(20*time.Millisecond, func() { atKill = victim.Retransmits })
	var got error
	rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			return c.Send(0, 0, make([]byte, 256<<10))
		}
		c.Compute(200 * time.Millisecond)
		c.FailureAck()
		_, got = c.Recv(1, 0, make([]byte, 256<<10))
		return nil
	})
	if err != rep.FirstErr() || rep.Errs[0] != nil || !mpi.IsPeerDown(got) {
		t.Fatalf("run %v, rank 0's receive %v: want only rank 1's death", err, got)
	}
	if n := victim.Retransmits - atKill; atKill < 0 || n != 0 || victim.Err != nil {
		t.Errorf("the killed rank retransmitted %d frames after its death (link %v), want 0", n, victim.Err)
	}
	if rep.Elapsed != rep.RankElapsed[0] {
		t.Errorf("run drained at %v, the last live rank finished at %v", rep.Elapsed, rep.RankElapsed[0])
	}
}

// A rank killed mid-write is not stopped on tcp or unet: an open defect
// (ROADMAP item 3(d)), pinned here as measured. Rank 1 of a 2-rank job
// sends 4 MiB to rank 0 and dies at 5 ms. On tcp the corpse stays parked in
// the write interleave on a window the survivor never reopens, so the run
// ends in the kernel's deadlock instead of the kill; on unet its proc runs
// on to 252 ms and the run drains at 259.61 ms; on udp, whose RUDP.Stop
// abandons the write, it drains at the survivor's finish. A change to any
// pin fails here: the fix re-pins its rows and updates item 3(d).
func TestKilledMidWriteDefectPinned(t *testing.T) {
	const kill = "mpi: rank 1 killed at 5ms by fault schedule"
	for _, tc := range []struct {
		kind           string
		err            string // the run's
		elapsed, rank0 time.Duration
	}{
		{"tcp", "sim: deadlock at 320602.689us: parked procs [rank1]", 320602689 * time.Nanosecond, 7 * time.Millisecond},
		{"unet", kill, 259611116 * time.Nanosecond, 5500 * time.Microsecond},
		{"udp", kill, 45 * time.Millisecond, 45 * time.Millisecond},
	} {
		rep, err := registry.Run(registry.Spec{Platform: "cluster", Transport: tc.kind, Ranks: 2, Kills: "1@5ms"}, func(c *mpi.Comm) error {
			if c.Rank() == 1 {
				return c.Send(0, 0, make([]byte, 4<<20))
			}
			if _, err := c.Recv(1, 0, make([]byte, 4<<20)); !mpi.IsPeerDown(err) {
				return fmt.Errorf("the receive returned %v, want the sender's death", err)
			}
			return nil
		})
		if fmt.Sprint(err) != tc.err || rep.Elapsed != tc.elapsed || rep.RankElapsed[0] != tc.rank0 {
			t.Errorf("%s: run %v, drained at %v, rank 0 done at %v; pinned %s, %v, %v (ROADMAP item 3(d): a fix re-pins this row)",
				tc.kind, err, rep.Elapsed, rep.RankElapsed[0], tc.err, tc.elapsed, tc.rank0)
		}
	}
}
