package atm

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// --- injector policy mechanics ---

func TestFaultsDropEveryNExactCount(t *testing.T) {
	s, cl := newCluster(2)
	if err := cl.SetFaults(Faults{DropEveryN: 3}); err != nil {
		t.Fatal(err)
	}
	delivered, promised := 0, 0
	s.At(0, func() {
		for i := 0; i < 30; i++ {
			promised += cl.Medium(OverEthernet).Deliver(0, 1, 100, DeliverOpts{Droppable: true}, func() { delivered++ })
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 20 || promised != delivered {
		t.Fatalf("drop-every-3rd delivered %d/30 after Deliver promised %d, want 20", delivered, promised)
	}
	if got := cl.Injector(OverEthernet).Stats.Dropped; got != 10 {
		t.Fatalf("Stats.Dropped = %d, want 10", got)
	}
}

func TestFaultsDelayShiftsArrivalExactly(t *testing.T) {
	arrival := func(f *Faults) sim.Time {
		s, cl := newCluster(2)
		if f != nil {
			if err := cl.SetFaults(*f); err != nil {
				t.Fatal(err)
			}
		}
		var at sim.Time
		s.At(0, func() {
			cl.Medium(OverATM).Deliver(0, 1, 100, DeliverOpts{Droppable: true}, func() { at = s.Now() })
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	base := arrival(nil)
	const extra = 5 * time.Millisecond
	delayed := arrival(&Faults{Delay: extra})
	if delayed-base != sim.Time(extra) {
		t.Fatalf("delay fault shifted arrival by %v, want exactly %v", sim.Duration(delayed-base), extra)
	}
}

func TestFaultsJitterBoundedAndDeterministic(t *testing.T) {
	const jitter = 1 * time.Millisecond
	run := func(f *Faults) []sim.Time {
		s, cl := newCluster(2)
		if f != nil {
			if err := cl.SetFaults(*f); err != nil {
				t.Fatal(err)
			}
		}
		var at []sim.Time
		// Space frames far apart so queuing never adds to the arrival time.
		for i := 0; i < 10; i++ {
			s.At(sim.Time(i)*sim.Time(10*time.Millisecond), func() {
				cl.Medium(OverATM).Deliver(0, 1, 100, DeliverOpts{Droppable: true}, func() { at = append(at, s.Now()) })
			})
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	base := run(nil)
	a := run(&Faults{Seed: 11, Jitter: jitter})
	b := run(&Faults{Seed: 11, Jitter: jitter})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("jitter nondeterministic under a fixed seed:\n%v\n%v", a, b)
	}
	varied := false
	for i := range base {
		d := a[i] - base[i]
		if d < 0 || d >= sim.Time(jitter) {
			t.Fatalf("frame %d jittered by %v, outside [0, %v)", i, sim.Duration(d), jitter)
		}
		if d != a[0]-base[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("every frame drew the same jitter; generator not advancing")
	}
}

func TestFaultsReorderOvertakesOnFIFOWire(t *testing.T) {
	run := func() ([]int, FaultStats) {
		s, cl := newCluster(2)
		if err := cl.SetFaults(Faults{Seed: 1, Reorder: 0.5}); err != nil {
			t.Fatal(err)
		}
		var order []int
		s.At(0, func() {
			for i := 0; i < 8; i++ {
				i := i
				cl.Medium(OverATM).Deliver(0, 1, 100, DeliverOpts{Droppable: true}, func() { order = append(order, i) })
			}
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return order, cl.Injector(OverATM).Stats
	}
	a, stats := run()
	b, _ := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reordering nondeterministic: %v vs %v", a, b)
	}
	if len(a) != 8 {
		t.Fatalf("reordering lost frames: %d/8 delivered", len(a))
	}
	if stats.Reordered == 0 {
		t.Fatal("no frames held for reordering at p=0.5")
	}
	inOrder := true
	for i, id := range a {
		if id != i {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatalf("held frames never overtaken; order still %v", a)
	}
}

func TestFaultsDuplicateDeliversTwice(t *testing.T) {
	s, cl := newCluster(2)
	if err := cl.SetFaults(Faults{Seed: 2, Duplicate: 1.0}); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			before := delivered
			if n := cl.Medium(OverATM).Deliver(0, 1, 100, DeliverOpts{Droppable: true}, func() { delivered++ }); n != 2 {
				t.Errorf("frame %d: Deliver reported %d copies, want 2", i, n)
			}
			if delivered != before {
				t.Errorf("frame %d: delivered before Deliver returned", i)
			}
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 20 {
		t.Fatalf("duplicate=1.0 delivered %d copies of 10 frames, want 20", delivered)
	}
	if got := cl.Injector(OverATM).Stats.Duplicated; got != 10 {
		t.Fatalf("Stats.Duplicated = %d, want 10", got)
	}
}

func TestFaultsPartitionWindow(t *testing.T) {
	s, cl := newCluster(2)
	err := cl.SetFaults(Faults{Partitions: []Partition{
		{A: 0, B: 1, From: 5 * time.Millisecond, Until: 50 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	send := func(id int, at time.Duration) {
		s.At(sim.Time(at), func() {
			// Partitions sever everything, droppable or not.
			cl.Medium(OverATM).Deliver(0, 1, 100, DeliverOpts{}, func() { got = append(got, id) })
		})
	}
	send(0, 0)                   // before the cut: delivered
	send(1, 10*time.Millisecond) // inside the window: severed
	send(2, 30*time.Millisecond) // inside the window: severed
	send(3, 60*time.Millisecond) // healed: delivered
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 3}) {
		t.Fatalf("partition window delivered %v, want [0 3]", got)
	}
	if cl.Injector(OverATM).Stats.Partitioned != 2 {
		t.Fatalf("Stats.Partitioned = %d, want 2", cl.Injector(OverATM).Stats.Partitioned)
	}
}

func TestFaultsWildcardPartitionIsolatesHost(t *testing.T) {
	s, cl := newCluster(3)
	if err := cl.SetFaults(Faults{Partitions: []Partition{{A: 0, B: -1}}}); err != nil {
		t.Fatal(err)
	}
	var got []string
	s.At(0, func() {
		cl.Medium(OverATM).Deliver(0, 1, 100, DeliverOpts{}, func() { got = append(got, "0->1") })
		cl.Medium(OverATM).Deliver(2, 0, 100, DeliverOpts{}, func() { got = append(got, "2->0") })
		cl.Medium(OverATM).Deliver(1, 2, 100, DeliverOpts{}, func() { got = append(got, "1->2") })
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"1->2"}) {
		t.Fatalf("wildcard partition let through %v, want only 1->2", got)
	}
}

// A composite policy must replay identically under the same seed — same
// arrival order and same virtual timestamps — and must perturb the run at
// all; which frames it drops, holds or doubles is the seed's business.
func TestFaultsCompositePolicyDeterministic(t *testing.T) {
	type arrival struct {
		ID int
		At sim.Time
	}
	run := func(f Faults) []arrival {
		s, cl := newCluster(2)
		if err := cl.SetFaults(f); err != nil {
			t.Fatal(err)
		}
		var got []arrival
		s.At(0, func() {
			for i := 0; i < 50; i++ {
				i := i
				cl.Medium(OverEthernet).Deliver(0, 1, 200, DeliverOpts{Droppable: true}, func() {
					got = append(got, arrival{i, s.Now()})
				})
			}
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	composite := Faults{
		Seed: 99, Loss: 0.2, Jitter: 200 * time.Microsecond,
		Reorder: 0.3, Duplicate: 0.3,
	}
	a, b := run(composite), run(composite)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("composite fault policy nondeterministic:\n%v\n%v", a, b)
	}
	if clean := run(Faults{}); len(clean) != 50 || reflect.DeepEqual(a, clean) {
		t.Fatalf("composite policy inert: %d arrivals, %d on a clean wire", len(a), len(clean))
	}
}

// The fault table is n*n links per medium, built eagerly: a link must stay
// a generator state and a counter (it was a 4.9 KB math/rand source once,
// 320 MB at 256 hosts).
func TestFaultLinkStaysSmall(t *testing.T) {
	if sz := unsafe.Sizeof(faultLink{}); sz > 32 {
		t.Fatalf("faultLink is %d bytes, want <= 32", sz)
	}
}

func TestFaultsSetInactiveClearsPolicy(t *testing.T) {
	_, cl := newCluster(2)
	if err := cl.SetFaults(Faults{Seed: 3, Loss: 0.5}); err != nil {
		t.Fatal(err)
	}
	if cl.Injector(OverATM).Policy() == nil {
		t.Fatal("active policy not installed")
	}
	if err := cl.SetFaults(Faults{}); err != nil {
		t.Fatal(err)
	}
	if cl.Injector(OverATM).Policy() != nil || cl.Injector(OverEthernet).Policy() != nil {
		t.Fatal("inactive policy did not clear the injectors")
	}
}

func TestFaultsValidate(t *testing.T) {
	bad := []Faults{
		{Loss: 1.5},
		{Loss: -0.1},
		{Reorder: 2},
		{Duplicate: -1},
		{DropEveryN: -1},
		{Delay: -time.Millisecond},
		{Partitions: []Partition{{A: 0, B: 1, From: 10 * time.Millisecond, Until: 5 * time.Millisecond}}},
	}
	for i, f := range bad {
		if f.Validate() == nil {
			t.Errorf("case %d: Validate accepted %+v", i, f)
		}
	}
	ok := []Faults{
		{},
		{Loss: 1.0},
		{Loss: 0.5, Reorder: 1, Duplicate: 1, DropEveryN: 2, Delay: time.Millisecond, Jitter: time.Millisecond},
		{Partitions: []Partition{{A: 0, B: -1, From: 0, Until: 0}}},
	}
	for i, f := range ok {
		if err := f.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected %+v: %v", i, f, err)
		}
	}
}

func TestParsePartitions(t *testing.T) {
	got, err := ParsePartitions(" 0-1 ; 2-*@1ms: ; 3-4@5ms:20ms ")
	if err != nil {
		t.Fatal(err)
	}
	want := []Partition{
		{A: 0, B: 1},
		{A: 2, B: -1, From: time.Millisecond},
		{A: 3, B: 4, From: 5 * time.Millisecond, Until: 20 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParsePartitions = %+v, want %+v", got, want)
	}
	if got, err := ParsePartitions("  "); err != nil || got != nil {
		t.Fatalf("empty spec: got %v, %v", got, err)
	}
	for _, bad := range []string{"0", "x-1", "0-1@5ms", "0-1@bad:", "0-1@10ms:5ms", "-1-2"} {
		if _, err := ParsePartitions(bad); err == nil {
			t.Errorf("ParsePartitions(%q) accepted", bad)
		}
	}
}

// FuzzParseKills: any string is a schedule of non-negative ranks and instants
// or an error, never a panic.
func FuzzParseKills(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		kills, err := ParseKills(spec)
		for _, k := range kills {
			if err != nil || k.Rank < 0 || k.At < 0 {
				t.Fatalf("ParseKills(%q) = %+v, %v", spec, kills, err)
			}
		}
	})
}

// FuzzParsePartitions: any string is a schedule the fault layer accepts or an
// error, never a panic.
func FuzzParsePartitions(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		parts, err := ParsePartitions(spec)
		if err != nil {
			if parts != nil {
				t.Fatalf("ParsePartitions(%q) = %+v with error %v", spec, parts, err)
			}
			return
		}
		if err := (Faults{Partitions: parts}).Validate(); err != nil {
			t.Fatalf("ParsePartitions(%q) accepted %+v, which Validate rejects: %v", spec, parts, err)
		}
	})
}

// --- hardened RUDP ---

// rudpPair spins up a reliable pair on the ATM medium.
func rudpPair(cl *Cluster) (*RUDP, *RUDP) {
	return NewRUDP(cl.UDPSocket(0, OverATM), nil), NewRUDP(cl.UDPSocket(1, OverATM), nil)
}

func TestRUDPAdaptiveRTOConverges(t *testing.T) {
	s, cl := newCluster(2)
	r0, r1 := rudpPair(cl)
	const iters = 30
	s.Spawn("h0", func(p *sim.Proc) {
		buf := make([]byte, 8)
		for i := 0; i < iters; i++ {
			if err := r0.Send(p, 1, []byte{byte(i)}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			if _, _, err := r0.Recv(p, buf); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
		}
	})
	s.Spawn("h1", func(p *sim.Proc) {
		buf := make([]byte, 8)
		for i := 0; i < iters; i++ {
			if _, _, err := r1.Recv(p, buf); err != nil {
				return
			}
			if err := r1.Send(p, 0, []byte{byte(i)}); err != nil {
				return
			}
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	pr := r0.peer(1)
	if pr.srtt == 0 {
		t.Fatal("no RTT samples folded into the estimator")
	}
	if pr.rto >= rudpInitialRTO {
		t.Fatalf("adaptive RTO %v never converged below the initial %v (srtt %v, rttvar %v)",
			pr.rto, rudpInitialRTO, pr.srtt, pr.rttvar)
	}
	if pr.rto < rudpMinRTO {
		t.Fatalf("RTO %v under the %v floor", pr.rto, rudpMinRTO)
	}
}

// Karn's rule: a retransmitted frame must never feed the estimator, or a
// spurious short sample would collapse the timeout.
func TestRUDPKarnExcludesRetransmits(t *testing.T) {
	s, cl := newCluster(2)
	r0, _ := rudpPair(cl)
	s.Spawn("tx", func(p *sim.Proc) {
		pr := r0.peer(1)
		if err := r0.Send(p, 1, []byte{1}); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		pend := pr.unacked[0]
		pend.tries = 1 // pretend the timer already re-sent it
		r0.applyAck(pr, 1)
		if pr.srtt != 0 {
			t.Errorf("retransmitted frame sampled: srtt = %v", pr.srtt)
		}
		pend.acked = true // silence the pending timer
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRUDPFastRetransmitOnDupAcks(t *testing.T) {
	s, cl := newCluster(2)
	r0, _ := rudpPair(cl)
	r0.MaxRetries = 2
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if err := r0.Send(p, 1, []byte{byte(i)}); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
		pr := r0.peer(1)
		// The peer acks seq 0, then repeats itself: frames past a hole at
		// seq 1 keep landing.
		r0.applyAck(pr, 1)
		for i := 0; i < rudpDupThreshold-1; i++ {
			r0.applyAck(pr, 1)
			if r0.FastRetransmits != 0 {
				t.Errorf("fast retransmit fired after only %d duplicate acks", i+1)
			}
		}
		r0.applyAck(pr, 1)
		if r0.FastRetransmits != 1 {
			t.Errorf("FastRetransmits = %d after %d duplicate acks, want 1", r0.FastRetransmits, rudpDupThreshold)
		}
		if pr.dupAcks != 0 {
			t.Errorf("dup-ack counter not reset after fast retransmit: %d", pr.dupAcks)
		}
		// Full acknowledgement quiesces the timers.
		r0.applyAck(pr, 4)
		if len(pr.unacked) != 0 {
			t.Errorf("%d frames still unacked after cumulative ack 4", len(pr.unacked))
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// End to end: a deterministically dropped data frame is repaired by the
// duplicate acks its successors provoke, without waiting out the timer.
func TestRUDPFastRetransmitEndToEnd(t *testing.T) {
	s, cl := newCluster(2)
	if err := cl.SetFaults(Faults{DropEveryN: 9}); err != nil {
		t.Fatal(err)
	}
	r0, r1 := rudpPair(cl)
	const msgs = 30
	var got []byte
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			if err := r0.Send(p, 1, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
		for i := 0; i < 400 && len(r0.peer(1).unacked) > 0; i++ {
			r0.drain(p)
			p.Advance(time.Millisecond)
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 16)
		for i := 0; i < msgs; i++ {
			if _, _, err := r1.Recv(p, buf); err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			got = append(got, buf[0])
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if r0.FastRetransmits == 0 {
		t.Errorf("pipelined stream over a drop-every-9th link triggered no fast retransmits (%d timer retransmits)", r0.Retransmits)
	}
}

func TestRUDPSurvivesPartitionWindow(t *testing.T) {
	s, cl := newCluster(2)
	err := cl.SetFaults(Faults{Partitions: []Partition{
		{A: 0, B: 1, From: 0, Until: 50 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := rudpPair(cl)
	const msgs = 5
	var got []byte
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			if err := r0.Send(p, 1, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
		for i := 0; i < 400 && len(r0.peer(1).unacked) > 0; i++ {
			r0.drain(p)
			p.Advance(time.Millisecond)
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 16)
		for i := 0; i < msgs; i++ {
			if _, _, err := r1.Recv(p, buf); err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			got = append(got, buf[0])
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("out of order after partition heal: %v", got)
		}
	}
	if cl.Injector(OverATM).Stats.Partitioned == 0 {
		t.Fatal("partition never severed a frame")
	}
	if r0.Retransmits == 0 {
		t.Fatal("no retransmissions bridged the outage")
	}
}

func TestRUDPDedupsDuplicatedFrames(t *testing.T) {
	s, cl := newCluster(2)
	if err := cl.SetFaults(Faults{Seed: 4, Duplicate: 1.0}); err != nil {
		t.Fatal(err)
	}
	r0, r1 := rudpPair(cl)
	const msgs = 20
	var got []byte
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			if err := r0.Send(p, 1, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 16)
		for i := 0; i < msgs; i++ {
			if _, _, err := r1.Recv(p, buf); err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			got = append(got, buf[0])
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != msgs {
		t.Fatalf("duplication leaked through: %d/%d delivered", len(got), msgs)
	}
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if r1.Duplicates == 0 {
		t.Fatal("receiver never saw a duplicate data frame to suppress")
	}
}

func TestRUDPRestoresOrderUnderReordering(t *testing.T) {
	s, cl := newCluster(2)
	if err := cl.SetFaults(Faults{Seed: 6, Reorder: 0.4}); err != nil {
		t.Fatal(err)
	}
	r0, r1 := rudpPair(cl)
	const msgs = 30
	var got []byte
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			if err := r0.Send(p, 1, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
		for i := 0; i < 400 && len(r0.peer(1).unacked) > 0; i++ {
			r0.drain(p)
			p.Advance(time.Millisecond)
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 16)
		for i := 0; i < msgs; i++ {
			if _, _, err := r1.Recv(p, buf); err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			got = append(got, buf[0])
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if int(b) != i {
			t.Fatalf("sequencing failed to restore order at %d: %v", i, got)
		}
	}
	if cl.Injector(OverATM).Stats.Reordered == 0 {
		t.Fatal("reordering never exercised")
	}
}

func TestRUDPLinkDeathSetsErr(t *testing.T) {
	s, cl := newCluster(2)
	if err := cl.SetFaults(Faults{Partitions: []Partition{{A: 0, B: 1}}}); err != nil {
		t.Fatal(err)
	}
	r0, _ := rudpPair(cl)
	r0.MaxRetries = 3
	s.Spawn("tx", func(p *sim.Proc) {
		if err := r0.Send(p, 1, []byte{1}); err != nil {
			t.Errorf("first send should queue, got %v", err)
			return
		}
		for r0.Err == nil && p.Now() < sim.Time(2*time.Second) {
			p.Advance(5 * time.Millisecond)
		}
		if r0.Err == nil {
			t.Error("permanently partitioned peer never declared dead")
			return
		}
		// After death the link fails fast.
		if err := r0.Send(p, 1, []byte{2}); err == nil {
			t.Error("Send succeeded on a dead link")
		}
		if _, _, err := r0.Recv(p, make([]byte, 8)); err == nil {
			t.Error("Recv succeeded on a dead link")
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// --- U-Net under the injector (Medium-bypassing path) ---

func TestUNetDelayFaultApplies(t *testing.T) {
	rtt := func(f *Faults) sim.Duration {
		s, cl := newCluster(2)
		if f != nil {
			if err := cl.SetFaults(*f); err != nil {
				t.Fatal(err)
			}
		}
		u0, u1 := cl.UNetSocket(0), cl.UNetSocket(1)
		var d sim.Duration
		s.Spawn("h0", func(p *sim.Proc) {
			buf := make([]byte, 8)
			start := p.Now()
			u0.SendTo(p, 1, make([]byte, 8))
			u0.RecvFrom(p, buf)
			d = sim.Duration(p.Now() - start)
		})
		s.Spawn("h1", func(p *sim.Proc) {
			buf := make([]byte, 8)
			u1.RecvFrom(p, buf)
			u1.SendTo(p, 0, make([]byte, 8))
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	base := rtt(nil)
	const oneWay = 1 * time.Millisecond
	slowed := rtt(&Faults{Delay: oneWay})
	if slowed-base != 2*oneWay {
		t.Fatalf("1ms one-way delay fault stretched U-Net RTT by %v, want exactly 2ms", slowed-base)
	}
}

func TestUNetPartitionSevers(t *testing.T) {
	s, cl := newCluster(2)
	if err := cl.SetFaults(Faults{Partitions: []Partition{{A: 0, B: 1}}}); err != nil {
		t.Fatal(err)
	}
	u0, u1 := cl.UNetSocket(0), cl.UNetSocket(1)
	got := 0
	s.Spawn("tx", func(p *sim.Proc) {
		u0.SendTo(p, 1, []byte{1})
	})
	s.Spawn("rx", func(p *sim.Proc) {
		for p.Now() < sim.Time(20*time.Millisecond) {
			if u1.Readable() {
				u1.RecvFrom(p, make([]byte, 8))
				got++
			}
			p.Advance(time.Millisecond)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("partitioned U-Net still delivered %d frames", got)
	}
	if cl.Injector(OverATM).Stats.Partitioned == 0 {
		t.Fatal("partition not charged to the injector stats")
	}
}
