package meiko

import (
	"testing"
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

// pingPongEvents runs trips 1-byte round trips on meiko/lowlatency and
// reports the kernel events the run booked (Report.Events, which the
// benchmark's sim.events_per_op reads).
func pingPongEvents(t *testing.T, trips int) uint64 {
	t.Helper()
	rep, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 2, Impl: "lowlatency"}, func(c *mpi.Comm) error {
		buf := make([]byte, 1)
		peer := 1 - c.Rank()
		for range trips {
			if c.Rank() == 0 {
				if err := c.Send(peer, 0, buf); err != nil {
					return err
				}
			}
			if _, err := c.Recv(peer, 0, buf); err != nil {
				return err
			}
			if c.Rank() == 1 {
				if err := c.Send(peer, 0, buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Events
}

// The paper's round trip is twelve dispatches. Each rank's slot returns
// while it waits in Recv for the reply; that wake only polled an empty
// slot area and parked again, and Engine.Nudge drops it: 30 kernel events
// per round trip, where every slot return waking the rank booked 32. A
// transaction routes its landing at issue, without a departure event: the
// round trip's two envelopes and two slot-frees are 26.
func TestPingPongBooksTwentySixEventsPerRoundTrip(t *testing.T) {
	const trips = 100
	if got := pingPongEvents(t, 2*trips) - pingPongEvents(t, trips); got != 26*trips {
		t.Fatalf("%d more round trips booked %d more events (%.2f each), want 26 each", trips, got, float64(got)/trips)
	}
}

// A rank blocked in Probe keeps the slot return's wake, and with it the
// Iprobe match it pays: rank 0 sends to rank 1, then probes for rank 2's
// message, which lands while the match the slot return started is still
// being charged. Without that wake rank 0 would sleep until the message
// and finish at 118.94 µs.
func TestProbeWakesOnSlotReturn(t *testing.T) {
	rep, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 3, Impl: "lowlatency"}, func(c *mpi.Comm) error {
		buf := make([]byte, 1)
		switch c.Rank() {
		case 0:
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			if _, err := c.Probe(2, 0); err != nil {
				return err
			}
			_, err := c.Recv(2, 0, buf)
			return err
		case 1:
			_, err := c.Recv(0, 0, buf)
			return err
		}
		c.Compute(28 * time.Microsecond)
		return c.Send(0, 0, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.RankElapsed[0], 109260*time.Nanosecond; got != want {
		t.Fatalf("rank 0 finished at %v, want %v", got, want)
	}
}
