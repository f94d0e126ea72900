package cluster

import (
	"fmt"
	"strings"
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
// between two ranks, no fault knob set, with RTR and without: each RUDP
// timer covers the bytes of its frame and of the frames queued ahead of it,
// so none expires before the frame can have landed and been acked. A timer
// learned from small frames alone fails every cell (ROADMAP item 3).
func TestLossFreeNeverRetransmits(t *testing.T) {
	for _, bytes := range []int{64 << 10, 256 << 10, 1 << 20} {
		for _, noRTR := range []bool{false, true} {
			w, _, err := build(registry.Spec{Ranks: 2, NoRTR: noRTR}, "udp")
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
				t.Errorf("%d B, NoRTR %v: %d frames retransmitted on a loss-free wire, want 0", bytes, noRTR, got)
			}
		}
	}
}

// The loss-free sweep: ping-pong from 1 B to 1 MiB with RTR on and off,
// and the shuffle, halo, allreduce and stencil workloads at 3, 4, 8 and 16
// ranks and 1 to 64 KiB, 84 cells. Every cell retransmits nothing except
// the ones ROADMAP item 3(b) owns, pinned at their counts with the class
// named: in each, a data frame waits for a receiver that cannot drain it
// and send the ack, one whose body has returned or one inside a long copy
// of its own.
func TestLossFreeSweepRetransmits(t *testing.T) {
	const finishedRank = "finished rank: the last frame goes to a rank whose body returned, and nobody acks it"
	const busyReceiver = "busy receiver: the peer is inside a long copy of its own when the timer expires"
	pinned := map[string]struct {
		n     int64
		class string
	}{
		"pingpong/2/16384":       {25, finishedRank},
		"pingpong/2/16384/nortr": {25, finishedRank},
		"allreduce/3/65536":      {6, busyReceiver},
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
		for _, noRTR := range []bool{false, true} {
			w, _, err := build(registry.Spec{Ranks: 2, NoRTR: noRTR}, "udp")
			if err != nil {
				t.Fatal(err)
			}
			cell := fmt.Sprintf("pingpong/2/%d", n)
			if noRTR {
				cell += "/nortr"
			}
			rep, err := mpi.Launch(w, pingPong5(n))
			check(cell, rep, err)
		}
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

// ROADMAP item 3(b), pinned: on a 2-rank 16 KiB eager ping-pong, rank 0's
// last frame (34 B, a header-only protocol frame) goes to a rank whose body
// has returned. Nothing drains a data frame at a rank outside MPI, so
// nobody acks it: rank 0's RUDP sends it again until the link is declared
// dead, and the run drains 13 s after the slower rank finished, with
// nothing in Report.Protocol. The right values are no
// retransmits, a live link and an Elapsed near MaxRankElapsed.
func TestFinishedRankRetransmitsPinned(t *testing.T) {
	w, trs, err := build(registry.Spec{Ranks: 2}, "udp")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mpi.Launch(w, pingPong5(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	const wantErr = "peer 1 unreachable after 25 retransmissions of seq 9"
	linkErr := trs[0].dgram.(*atm.RUDP).Err
	if got := retransmits(rep); got != 25 || linkErr == nil || !strings.Contains(linkErr.Error(), wantErr) {
		t.Errorf("%d retransmits, link error %v; pinned 25 and %q", got, linkErr, wantErr)
	}
	if rep.Elapsed != 13176979590 || rep.MaxRankElapsed != 54496670*time.Nanosecond || len(rep.Protocol) != 0 {
		t.Errorf("Elapsed %v, MaxRankElapsed %v, Protocol %v; pinned 13.17697959s, 54.49667ms and none",
			rep.Elapsed, rep.MaxRankElapsed, rep.Protocol)
	}
}
