package meiko

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func newMachine(n int) (*sim.Scheduler, *Machine) {
	s := sim.NewScheduler(1)
	s.MaxEvents = 5_000_000
	return s, NewMachine(s, n, DefaultCosts())
}

func TestTxnDelivers(t *testing.T) {
	s, m := newMachine(2)
	var deliveredAt sim.Time
	s.At(0, func() {
		m.Nodes[0].Txn(1, 8, false, func() { deliveredAt = s.Now() })
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	c := m.Costs
	want := sim.Time(8*c.TxnPerByte + c.WireLatency + c.ElanTxnHandle)
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestTxnFIFOPerPair(t *testing.T) {
	s, m := newMachine(2)
	var order []int
	s.At(0, func() {
		for i := 0; i < 5; i++ {
			i := i
			m.Nodes[0].Txn(1, 100, false, func() { order = append(order, i) })
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestDMACompletionOrder(t *testing.T) {
	s, m := newMachine(2)
	var localAt, remoteAt sim.Time
	s.At(0, func() {
		m.Nodes[0].DMA(1, 1000,
			func() { localAt = s.Now() },
			func() { remoteAt = s.Now() })
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if localAt == 0 || remoteAt == 0 || localAt >= remoteAt {
		t.Fatalf("local %v, remote %v: want local < remote", localAt, remoteAt)
	}
}

func TestDMABandwidthApproaches39MBps(t *testing.T) {
	s, m := newMachine(2)
	const n = 1 << 20
	var remoteAt sim.Time
	s.At(0, func() {
		m.Nodes[0].DMA(1, n, nil, func() { remoteAt = s.Now() })
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	mbps := float64(n) / remoteAt.Duration().Seconds() / 1e6
	if mbps < 37 || mbps > 41 {
		t.Fatalf("DMA bandwidth = %.1f MB/s, want ~39-40", mbps)
	}
}

func TestBroadcastReachesAllNodes(t *testing.T) {
	s, m := newMachine(8)
	got := map[int]sim.Time{}
	s.At(0, func() {
		m.Nodes[3].Broadcast(256, nil, func(dst *Node) { got[dst.ID] = s.Now() })
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("broadcast reached %d nodes, want 7", len(got))
	}
	if _, self := got[3]; self {
		t.Fatal("broadcast delivered to source")
	}
}

func TestBroadcastCheaperThanSequentialSends(t *testing.T) {
	// One hardware broadcast of n bytes must beat n sequential DMAs —
	// the structural reason Figure 7 favors the low-latency implementation.
	const nodes, size = 16, 1024
	bcast := func() sim.Time {
		s, m := newMachine(nodes)
		var last sim.Time
		s.At(0, func() {
			m.Nodes[0].Broadcast(size, nil, func(dst *Node) { last = s.Now() })
		})
		s.Run()
		return last
	}()
	seq := func() sim.Time {
		s, m := newMachine(nodes)
		var last sim.Time
		s.At(0, func() {
			for i := 1; i < nodes; i++ {
				m.Nodes[0].DMA(i, size, nil, func() {
					if s.Now() > last {
						last = s.Now()
					}
				})
			}
		})
		s.Run()
		return last
	}()
	if !(bcast < seq/4) {
		t.Fatalf("broadcast %v not clearly cheaper than %d sequential sends %v", bcast, nodes-1, seq)
	}
}

func TestEventWaitBeforeSet(t *testing.T) {
	s, m := newMachine(1)
	ev := m.Nodes[0].NewEvent()
	var wokeAt sim.Time
	s.Spawn("w", func(p *sim.Proc) {
		ev.Wait(p)
		wokeAt = p.Now()
	})
	s.At(100, func() { ev.Set() })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(100) + sim.Time(m.Costs.ElanSync)
	if wokeAt != want {
		t.Fatalf("woke at %v, want %v (set time + sync cost)", wokeAt, want)
	}
}

func TestEventAlreadySetNoSyncCost(t *testing.T) {
	s, m := newMachine(1)
	ev := m.Nodes[0].NewEvent()
	ev.Set()
	var wokeAt sim.Time
	s.Spawn("w", func(p *sim.Proc) {
		ev.Wait(p)
		wokeAt = p.Now()
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 0 {
		t.Fatalf("pre-set event cost %v", wokeAt)
	}
}

// tportPingPong measures a tport round trip for n-byte messages.
func tportPingPong(t *testing.T, n, iters int) sim.Duration {
	t.Helper()
	s, m := newMachine(2)
	t0 := m.NewTport(m.Nodes[0])
	t1 := m.NewTport(m.Nodes[1])
	data := make([]byte, n)
	var total sim.Duration
	s.Spawn("n0", func(p *sim.Proc) {
		buf := make([]byte, n)
		start := p.Now()
		for i := 0; i < iters; i++ {
			t0.Send(p, 1, 7, data)
			t0.Recv(p, 7, ^uint64(0), buf)
		}
		total = sim.Duration(p.Now()-start) / sim.Duration(iters)
	})
	s.Spawn("n1", func(p *sim.Proc) {
		buf := make([]byte, n)
		for i := 0; i < iters; i++ {
			t1.Recv(p, 7, ^uint64(0), buf)
			t1.Send(p, 0, 7, data)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return total
}

// Paper anchor (Figure 2): the tport 1-byte round trip is 52 us.
func TestTportRTTCalibration(t *testing.T) {
	rtt := tportPingPong(t, 1, 20)
	us := float64(rtt) / 1e3
	if us < 49 || us > 55 {
		t.Fatalf("tport 1-byte RTT = %.1f us, want ~52 (paper anchor)", us)
	}
}

func TestTportRTTMonotonicInSize(t *testing.T) {
	var prev sim.Duration
	for _, n := range []int{1, 64, 256, 1024, 4096} {
		rtt := tportPingPong(t, n, 5)
		if rtt < prev {
			t.Fatalf("RTT decreased from %v to %v at size %d", prev, rtt, n)
		}
		prev = rtt
	}
}

func TestTportPayloadIntegrityEagerAndRndv(t *testing.T) {
	for _, n := range []int{1, TportEager, TportEager + 1, 100_000} {
		n := n
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			s, m := newMachine(2)
			t0 := m.NewTport(m.Nodes[0])
			t1 := m.NewTport(m.Nodes[1])
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i)
			}
			got := make([]byte, n)
			s.Spawn("sender", func(p *sim.Proc) { t0.Send(p, 1, 3, data) })
			s.Spawn("recver", func(p *sim.Proc) {
				nn, src, tag := t1.Recv(p, 3, ^uint64(0), got)
				if nn != n || src != 0 || tag != 3 {
					t.Errorf("recv = (%d, %d, %d)", nn, src, tag)
				}
			})
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("payload corrupted")
			}
		})
	}
}

func TestTportUnexpectedThenRecv(t *testing.T) {
	for _, n := range []int{32, 5000} {
		s, m := newMachine(2)
		t0 := m.NewTport(m.Nodes[0])
		t1 := m.NewTport(m.Nodes[1])
		data := make([]byte, n)
		got := make([]byte, n)
		s.Spawn("sender", func(p *sim.Proc) { t0.Send(p, 1, 9, data) })
		s.Spawn("recver", func(p *sim.Proc) {
			p.Advance(time.Millisecond) // arrive before the receive posts
			nn, _, _ := t1.Recv(p, 9, ^uint64(0), got)
			if nn != n {
				t.Errorf("n = %d, want %d", nn, n)
			}
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTportMaskWildcard(t *testing.T) {
	s, m := newMachine(2)
	t0 := m.NewTport(m.Nodes[0])
	t1 := m.NewTport(m.Nodes[1])
	s.Spawn("sender", func(p *sim.Proc) { t0.Send(p, 1, 0xABCD, []byte{1}) })
	s.Spawn("recver", func(p *sim.Proc) {
		// Match only the high byte of the low word.
		_, _, tag := t1.Recv(p, 0xAB00, 0xFF00, make([]byte, 1))
		if tag != 0xABCD {
			t.Errorf("tag = %#x", tag)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTportProbe(t *testing.T) {
	s, m := newMachine(2)
	t0 := m.NewTport(m.Nodes[0])
	t1 := m.NewTport(m.Nodes[1])
	s.Spawn("sender", func(p *sim.Proc) { t0.Send(p, 1, 5, make([]byte, 77)) })
	s.Spawn("recver", func(p *sim.Proc) {
		p.Advance(time.Millisecond)
		src, n, tag, ok := t1.Probe(p, 5, ^uint64(0))
		if !ok || src != 0 || n != 77 || tag != 5 {
			t.Errorf("probe = (%d,%d,%d,%v)", src, n, tag, ok)
		}
		if _, _, _, ok := t1.Probe(p, 6, ^uint64(0)); ok {
			t.Error("probe matched wrong tag")
		}
		t1.Recv(p, 5, ^uint64(0), make([]byte, 77))
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTportISendNonblocking(t *testing.T) {
	s, m := newMachine(2)
	t0 := m.NewTport(m.Nodes[0])
	t1 := m.NewTport(m.Nodes[1])
	s.Spawn("sender", func(p *sim.Proc) {
		req := t0.ISend(p, 1, 5, make([]byte, 100_000)) // rendezvous-sized
		if req.Done() {
			t.Error("large ISend done immediately")
		}
		t0.Wait(p, req)
		if !req.Done() {
			t.Error("ISend not done after Wait")
		}
	})
	s.Spawn("recver", func(p *sim.Proc) {
		t1.Recv(p, 5, ^uint64(0), make([]byte, 100_000))
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTportManySenders(t *testing.T) {
	const n = 8
	s, m := newMachine(n)
	ports := make([]*Tport, n)
	for i := range ports {
		ports[i] = m.NewTport(m.Nodes[i])
	}
	seen := map[int]bool{}
	for i := 1; i < n; i++ {
		i := i
		s.Spawn(fmt.Sprintf("s%d", i), func(p *sim.Proc) {
			ports[i].Send(p, 0, uint64(i), []byte{byte(i)})
		})
	}
	s.Spawn("recv", func(p *sim.Proc) {
		for k := 1; k < n; k++ {
			buf := make([]byte, 1)
			_, src, _ := ports[0].Recv(p, 0, 0, buf) // mask 0: wildcard all
			if int(buf[0]) != src {
				t.Errorf("src %d delivered byte %d", src, buf[0])
			}
			seen[src] = true
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n-1 {
		t.Fatalf("saw %d senders, want %d", len(seen), n-1)
	}
}

// The Elan is a serial resource: a burst of arrivals at one node
// serializes on its co-processor, delaying the last delivery by at least
// the summed handling costs.
func TestElanOccupancySerializes(t *testing.T) {
	s, m := newMachine(9)
	const burst = 8
	var last sim.Time
	s.At(0, func() {
		for i := 1; i <= burst; i++ {
			m.Nodes[i].Txn(0, 8, false, func() {
				if s.Now() > last {
					last = s.Now()
				}
			})
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	c := m.Costs
	minSerial := sim.Time(sim.Duration(burst) * c.ElanTxnHandle)
	if last < minSerial {
		t.Fatalf("burst completed at %v; Elan handling alone needs %v", last, minSerial)
	}
}

// Hardware broadcast skew: later nodes receive later, by BcastPerNode.
func TestBroadcastSkewOrdering(t *testing.T) {
	s, m := newMachine(8)
	arrive := map[int]sim.Time{}
	s.At(0, func() {
		m.Nodes[0].Broadcast(64, nil, func(dst *Node) { arrive[dst.ID] = s.Now() })
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for id := 2; id < 8; id++ {
		if arrive[id] < arrive[id-1] {
			t.Fatalf("node %d received before node %d", id, id-1)
		}
	}
}
