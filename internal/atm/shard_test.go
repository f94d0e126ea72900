package atm

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// The ATM fabric on shard lanes is the same cost model under a different
// driver: deliveries — including downlink contention at a shared
// destination port from sources on different lanes — must land at exactly
// the single-scheduler times.
func TestShardedATMNetMatchesSingleScheduler(t *testing.T) {
	c := DefaultCosts()
	run := func(a *ATMNet, drive func() (sim.Time, error)) []sim.Time {
		ends := make([]sim.Time, 3)
		// Deliver must run in its source's lane context, so each send is an
		// event on that host's scheduler.
		send := func(i, src, dst, n int, opts DeliverOpts) {
			a.schedOf(src).At(0, func() {
				a.Deliver(src, dst, n, opts, func() { ends[i] = a.schedOf(dst).Now() })
			})
		}
		// Two hosts blast the same destination port; a third packet rides
		// the opposite direction.
		send(0, 0, 2, 1024, DeliverOpts{})
		send(1, 1, 2, 512, DeliverOpts{})
		send(2, 2, 0, 256, DeliverOpts{AAL34: true})
		if _, err := drive(); err != nil {
			t.Fatal(err)
		}
		return ends
	}
	s := sim.NewScheduler(1)
	want := run(NewATMNet(s, 3, c, make([]*sim.Ledger, 3)), s.Run)
	sh := sim.NewShard(1, 3, c.SwitchDelay)
	got := run(NewATMNet(sh.Lane(0), 3, c, make([]*sim.Ledger, 3)), sh.Run)
	golden := []sim.Time{273264, 212632, 185072} // the shorter packet reaches the port first
	for i := range golden {
		if want[i] != golden[i] || got[i] != golden[i] {
			t.Fatalf("delivery %d: single %v, sharded %v, want %v (all: %v vs %v)", i, want[i], got[i], golden[i], want, got)
		}
	}
}

// The shared Ethernet segment homes on lane 0 as a sim.Stage: frames from
// every lane must serialize on the one wire in stamp order, landing at
// exactly the single-scheduler times — including back-to-back contention
// where the queueing arithmetic, not just the latency, decides, and a tie
// between two hosts' frames stamped at one instant.
func TestShardedEthernetMatchesSingleScheduler(t *testing.T) {
	c := DefaultCosts()
	run := func(e *Ethernet, drive func() (sim.Time, error)) []sim.Time {
		ends := make([]sim.Time, 6)
		// All hosts contend for the wire at t=0, then host 0 sends again.
		e.Deliver(0, 2, 700, DeliverOpts{}, func() {
			ends[0] = e.s.Node(2, 3).Now()
			e.Deliver(2, 1, 40, DeliverOpts{}, func() { ends[3] = e.s.Node(1, 3).Now() })
		})
		e.Deliver(1, 2, 300, DeliverOpts{}, func() { ends[1] = e.s.Node(2, 3).Now() })
		e.Deliver(2, 0, 1, DeliverOpts{}, func() { ends[2] = e.s.Node(0, 3).Now() })
		// On an idle wire, hosts 2 and 1 stamp a frame at one instant, host
		// 2 first in execution order; on a shard host 1's lane merges first.
		for _, src := range []int{2, 1} {
			e.s.Node(src, 3).At(5_000_000, func() {
				e.Deliver(src, 0, 100, DeliverOpts{}, func() { ends[3+src] = e.s.Node(0, 3).Now() })
			})
		}
		if _, err := drive(); err != nil {
			t.Fatal(err)
		}
		return ends
	}
	s := sim.NewScheduler(1)
	want := run(NewEthernet(s, 3, c, make([]*sim.Ledger, 3)), s.Run)
	sh := sim.NewShard(1, 3, c.SwitchDelay)
	got := run(NewEthernet(sh.Lane(0), 3, c, make([]*sim.Ledger, 3)), sh.Run)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d at %v sharded, %v single (all: %v vs %v)", i, got[i], want[i], got, want)
		}
		if want[i] == 0 {
			t.Fatalf("delivery %d never ran", i)
		}
	}
	// Neither order decides the tie: the wire goes to the lower host.
	if want[4] >= want[5] {
		t.Fatalf("tied frames: host 1's lands at %v, host 2's at %v; the lower host must win", want[4], want[5])
	}
}

func TestShardedEthernetRejectsLongLookahead(t *testing.T) {
	c := DefaultCosts()
	// A lookahead above the propagation+driver tail must be rejected.
	sh := sim.NewShard(1, 2, c.EthPropDelay+c.DriverEthPerFrame+time.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for lookahead above the delivery tail")
		}
	}()
	NewEthernet(sh.Lane(0), 2, c, make([]*sim.Ledger, 2))
}

func TestShardedATMNetRejectsShortSwitchDelay(t *testing.T) {
	c := DefaultCosts()
	sh := sim.NewShard(1, 2, c.SwitchDelay+time.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for switch delay below lookahead")
		}
	}()
	NewATMNet(sh.Lane(0), 2, c, make([]*sim.Ledger, 2))
}
