package atm

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/sim"
)

func newCluster(n int) (*sim.Scheduler, *Cluster) {
	s := sim.NewScheduler(1)
	s.MaxEvents = 20_000_000
	return s, NewCluster(s, n, DefaultCosts())
}

// --- SAR / cells ---

func TestAAL5CellMath(t *testing.T) {
	cases := []struct{ n, cells int }{
		{0, 1}, {1, 1}, {40, 1}, {41, 2}, {88, 2}, {89, 3}, {1000, 21},
	}
	for _, c := range cases {
		if got := AAL5Cells(c.n); got != c.cells {
			t.Errorf("AAL5Cells(%d) = %d, want %d", c.n, got, c.cells)
		}
	}
	if AAL5WireBytes(40) != 53 {
		t.Errorf("AAL5WireBytes(40) = %d", AAL5WireBytes(40))
	}
}

func TestAAL34CellMath(t *testing.T) {
	if got := AAL34Cells(36); got != 1 {
		t.Errorf("AAL34Cells(36) = %d, want 1", got)
	}
	if got := AAL34Cells(37); got != 2 {
		t.Errorf("AAL34Cells(37) = %d, want 2", got)
	}
	// AAL3/4 wastes more wire than AAL5 for the same payload.
	if AAL34WireBytes(1000) <= AAL5WireBytes(1000) {
		t.Error("AAL3/4 should cost more cells than AAL5")
	}
}

// --- media ---

func TestEthernetSharedMediumContention(t *testing.T) {
	s, cl := newCluster(4)
	var done []sim.Time
	s.At(0, func() {
		// Two disjoint host pairs still contend on the shared wire.
		cl.Eth.Deliver(0, 1, 1000, DeliverOpts{}, func() { done = append(done, s.Now()) })
		cl.Eth.Deliver(2, 3, 1000, DeliverOpts{}, func() { done = append(done, s.Now()) })
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatal("frames lost")
	}
	gap := done[1] - done[0]
	wire := sim.Time(sim.Duration(FrameWireBytes(1000)) * cl.Costs.EthPerByte)
	if gap < wire {
		t.Fatalf("second frame finished only %v after first; shared wire not serializing (frame time %v)", gap, wire)
	}
}

func TestATMDisjointPairsParallel(t *testing.T) {
	s, cl := newCluster(4)
	var done []sim.Time
	s.At(0, func() {
		cl.Atm.Deliver(0, 1, 8000, DeliverOpts{}, func() { done = append(done, s.Now()) })
		cl.Atm.Deliver(2, 3, 8000, DeliverOpts{}, func() { done = append(done, s.Now()) })
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] != done[1] {
		t.Fatalf("disjoint ATM pairs did not run in parallel: %v vs %v", done[0], done[1])
	}
}

func TestLossInjectionDeterministic(t *testing.T) {
	run := func() int {
		s, cl := newCluster(2)
		cl.SetFaults(Faults{Seed: 7, Loss: 0.3})
		delivered := 0
		s.At(0, func() {
			for i := 0; i < 100; i++ {
				cl.Medium(OverEthernet).Deliver(0, 1, 100, DeliverOpts{Droppable: true}, func() { delivered++ })
			}
		})
		s.Run()
		return delivered
	}
	a, b := run(), run()
	if a == 100 || a == 0 {
		t.Fatalf("loss rate ineffective: %d delivered", a)
	}
	if a != b {
		t.Fatalf("loss injection nondeterministic: %d vs %d", a, b)
	}
}

func TestNonDroppableNeverLost(t *testing.T) {
	s, cl := newCluster(2)
	cl.SetFaults(Faults{Seed: 1, Loss: 1.0})
	delivered := 0
	s.At(0, func() {
		for i := 0; i < 10; i++ {
			cl.Medium(OverEthernet).Deliver(0, 1, 100, DeliverOpts{}, func() { delivered++ })
		}
	})
	s.Run()
	if delivered != 10 {
		t.Fatalf("non-droppable frames lost: %d/10", delivered)
	}
}

// --- TCP ---

func tcpPingPong(t *testing.T, k MediumKind, n, iters int) sim.Duration {
	t.Helper()
	s, cl := newCluster(2)
	a, b := cl.TCPPair(0, 1, k)
	msg := make([]byte, n)
	var rtt sim.Duration
	s.Spawn("h0", func(p *sim.Proc) {
		buf := make([]byte, n)
		start := p.Now()
		for i := 0; i < iters; i++ {
			a.Write(p, msg)
			a.ReadFull(p, buf)
		}
		rtt = sim.Duration(p.Now()-start) / sim.Duration(iters)
	})
	s.Spawn("h1", func(p *sim.Proc) {
		buf := make([]byte, n)
		for i := 0; i < iters; i++ {
			b.ReadFull(p, buf)
			b.Write(p, msg)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return rtt
}

// Paper anchors (Table 1): 1-byte TCP round trips of ~925 us over Ethernet
// and ~1065 us over ATM.
func TestTCPRTTCalibrationEthernet(t *testing.T) {
	us := float64(tcpPingPong(t, OverEthernet, 1, 10)) / 1e3
	if us < 880 || us > 970 {
		t.Fatalf("tcp/eth 1-byte RTT = %.0f us, want ~925 (paper anchor)", us)
	}
}

func TestTCPRTTCalibrationATM(t *testing.T) {
	us := float64(tcpPingPong(t, OverATM, 1, 10)) / 1e3
	if us < 1010 || us > 1120 {
		t.Fatalf("tcp/atm 1-byte RTT = %.0f us, want ~1065 (paper anchor)", us)
	}
}

// ATM loses at tiny messages (driver cost) but wins at large ones
// (15x wire bandwidth) — Figure 5's crossover.
func TestTCPEthATMCrossover(t *testing.T) {
	smallEth := tcpPingPong(t, OverEthernet, 1, 5)
	smallATM := tcpPingPong(t, OverATM, 1, 5)
	if smallATM < smallEth {
		t.Fatalf("1-byte: atm %v < eth %v; paper shows ATM slower for tiny messages", smallATM, smallEth)
	}
	bigEth := tcpPingPong(t, OverEthernet, 8192, 5)
	bigATM := tcpPingPong(t, OverATM, 8192, 5)
	if bigATM > bigEth {
		t.Fatalf("8KB: atm %v > eth %v; ATM should win for large messages", bigATM, bigEth)
	}
}

func TestTCPStreamIntegrity(t *testing.T) {
	s, cl := newCluster(2)
	a, b := cl.TCPPair(0, 1, OverATM)
	const total = 200_000
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i * 7)
	}
	var got []byte
	s.Spawn("w", func(p *sim.Proc) {
		// Write in irregular chunks.
		for off := 0; off < total; {
			n := 1 + (off*13)%7000
			if off+n > total {
				n = total - off
			}
			a.Write(p, src[off:off+n])
			off += n
		}
	})
	s.Spawn("r", func(p *sim.Proc) {
		buf := make([]byte, 3000)
		for len(got) < total {
			n := b.Read(p, buf)
			got = append(got, buf[:n]...)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("TCP delivered different bytes than were written")
	}
}

func TestTCPWindowBlocksSender(t *testing.T) {
	s, cl := newCluster(2)
	a, b := cl.TCPPair(0, 1, OverATM)
	const chunk = 32 * 1024
	var wroteThird sim.Time
	const readerDelay = 500 * time.Millisecond
	s.Spawn("w", func(p *sim.Proc) {
		a.Write(p, make([]byte, chunk))
		a.Write(p, make([]byte, chunk))
		// Window (64KB) now full: the third write must block until the
		// reader drains.
		a.Write(p, make([]byte, chunk))
		wroteThird = p.Now()
	})
	s.Spawn("r", func(p *sim.Proc) {
		p.Advance(readerDelay)
		buf := make([]byte, 3*chunk)
		b.ReadFull(p, buf)
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if wroteThird < sim.Time(readerDelay) {
		t.Fatalf("third write completed at %v, before reader drained at %v", wroteThird, readerDelay)
	}
}

func TestTCPBandwidthShape(t *testing.T) {
	// One-way throughput: ATM must be many times Ethernet, and Ethernet
	// must land near its 1.25 MB/s line rate (Figure 6's shape).
	bw := func(k MediumKind) float64 {
		s, cl := newCluster(2)
		a, b := cl.TCPPair(0, 1, k)
		const total = 1 << 20
		var elapsed sim.Duration
		s.Spawn("w", func(p *sim.Proc) {
			for i := 0; i < total/(32*1024); i++ {
				a.Write(p, make([]byte, 32*1024))
			}
		})
		s.Spawn("r", func(p *sim.Proc) {
			buf := make([]byte, total)
			b.ReadFull(p, buf)
			elapsed = sim.Duration(p.Now())
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(total) / elapsed.Seconds() / 1e6
	}
	eth := bw(OverEthernet)
	am := bw(OverATM)
	if eth < 0.8 || eth > 1.2 {
		t.Fatalf("tcp/eth bandwidth = %.2f MB/s, want ~1.0-1.1", eth)
	}
	if am < 4 || am > 14 {
		t.Fatalf("tcp/atm bandwidth = %.2f MB/s, want mid-single-digit", am)
	}
	if am < 4*eth {
		t.Fatalf("atm (%.2f) should be several times eth (%.2f)", am, eth)
	}
}

// --- UDP ---

func TestUDPDeliversDatagram(t *testing.T) {
	s, cl := newCluster(2)
	u0 := cl.UDPSocket(0, OverATM)
	u1 := cl.UDPSocket(1, OverATM)
	msg := []byte("hello atm")
	s.Spawn("tx", func(p *sim.Proc) { u0.SendTo(p, 1, msg) })
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 64)
		n, src := u1.RecvFrom(p, buf)
		if src != 0 || !bytes.Equal(buf[:n], msg) {
			t.Errorf("got (%d, %q)", src, buf[:n])
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUDPFragmentationRoundTrip(t *testing.T) {
	s, cl := newCluster(2)
	u0 := cl.UDPSocket(0, OverEthernet) // MTU 1500: forces fragmentation
	u1 := cl.UDPSocket(1, OverEthernet)
	msg := make([]byte, 6000)
	for i := range msg {
		msg[i] = byte(i)
	}
	s.Spawn("tx", func(p *sim.Proc) { u0.SendTo(p, 1, msg) })
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 8000)
		n, _ := u1.RecvFrom(p, buf)
		if n != 6000 || !bytes.Equal(buf[:n], msg) {
			t.Errorf("fragmented datagram corrupted (n=%d)", n)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUDPLossDropsDatagrams(t *testing.T) {
	s, cl := newCluster(2)
	cl.SetFaults(Faults{Seed: 3, Loss: 0.5})
	u0 := cl.UDPSocket(0, OverATM)
	u1 := cl.UDPSocket(1, OverATM)
	const sent = 60
	got := 0
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < sent; i++ {
			u0.SendTo(p, 1, []byte{byte(i)})
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 8)
		for {
			if u1.Readable() {
				u1.RecvFrom(p, buf)
				got++
				continue
			}
			if p.Now() > sim.Time(2*time.Second) {
				return
			}
			p.Advance(10 * time.Millisecond)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got == sent || got == 0 {
		t.Fatalf("loss rate 0.5 delivered %d/%d", got, sent)
	}
}

// --- Fore AAL4 (Figure 4) ---

func rawPingPong(t *testing.T, send func(p *sim.Proc, host, dst int, data []byte), recv func(p *sim.Proc, host int, buf []byte), n, iters int, s *sim.Scheduler) sim.Duration {
	t.Helper()
	var rtt sim.Duration
	s.Spawn("h0", func(p *sim.Proc) {
		buf := make([]byte, n)
		start := p.Now()
		for i := 0; i < iters; i++ {
			send(p, 0, 1, make([]byte, n))
			recv(p, 0, buf)
		}
		rtt = sim.Duration(p.Now()-start) / sim.Duration(iters)
	})
	s.Spawn("h1", func(p *sim.Proc) {
		buf := make([]byte, n)
		for i := 0; i < iters; i++ {
			recv(p, 1, buf)
			send(p, 1, 0, make([]byte, n))
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return rtt
}

// Figure 4: over ATM, Fore AAL4, TCP and UDP latencies are within ~25% of
// each other (the STREAMS stack swamps the adaptation-layer savings).
func TestFigure4AAL4NotMuchFasterThanTCPUDP(t *testing.T) {
	size := 512

	s1, cl1 := newCluster(2)
	a0, a1 := cl1.AAL4Socket(0), cl1.AAL4Socket(1)
	aal := rawPingPong(t,
		func(p *sim.Proc, host, dst int, data []byte) {
			if host == 0 {
				a0.SendTo(p, dst, data)
			} else {
				a1.SendTo(p, dst, data)
			}
		},
		func(p *sim.Proc, host int, buf []byte) {
			if host == 0 {
				a0.RecvFrom(p, buf)
			} else {
				a1.RecvFrom(p, buf)
			}
		}, size, 10, s1)

	s2, cl2 := newCluster(2)
	u0, u1 := cl2.UDPSocket(0, OverATM), cl2.UDPSocket(1, OverATM)
	udp := rawPingPong(t,
		func(p *sim.Proc, host, dst int, data []byte) {
			if host == 0 {
				u0.SendTo(p, dst, data)
			} else {
				u1.SendTo(p, dst, data)
			}
		},
		func(p *sim.Proc, host int, buf []byte) {
			if host == 0 {
				u0.RecvFrom(p, buf)
			} else {
				u1.RecvFrom(p, buf)
			}
		}, size, 10, s2)

	tcp := tcpPingPong(t, OverATM, size, 10)

	ratio := func(a, b sim.Duration) float64 { return float64(a) / float64(b) }
	if r := ratio(tcp, aal); r < 0.75 || r > 1.35 {
		t.Fatalf("tcp/aal4 ratio = %.2f (tcp %v, aal4 %v); Figure 4 shows them close", r, tcp, aal)
	}
	if r := ratio(udp, aal); r < 0.7 || r > 1.3 {
		t.Fatalf("udp/aal4 ratio = %.2f (udp %v, aal4 %v); Figure 4 shows them close", r, udp, aal)
	}
}

// --- RUDP ---

func TestRUDPReliableInOrderUnderLoss(t *testing.T) {
	s, cl := newCluster(2)
	cl.SetFaults(Faults{Seed: 5, Loss: 0.25})
	r0 := NewRUDP(cl.UDPSocket(0, OverATM), nil)
	r1 := NewRUDP(cl.UDPSocket(1, OverATM), nil)
	const msgs = 40
	var got []byte
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			if err := r0.Send(p, 1, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
		// Keep draining acks so retransmission state settles.
		for i := 0; i < 200 && len(r0.peer(1).unacked) > 0; i++ {
			r0.drain(p)
			p.Advance(5 * time.Millisecond)
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 16)
		for i := 0; i < msgs; i++ {
			n, src, err := r1.Recv(p, buf)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if n != 1 || src != 0 {
				t.Errorf("recv %d: n=%d src=%d", i, n, src)
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
	if r0.Retransmits == 0 {
		t.Error("no retransmissions under 25% loss — loss injection not exercised")
	}
}

func TestRUDPNoLossNoRetransmit(t *testing.T) {
	s, cl := newCluster(2)
	r0 := NewRUDP(cl.UDPSocket(0, OverATM), nil)
	r1 := NewRUDP(cl.UDPSocket(1, OverATM), nil)
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			r0.Send(p, 1, []byte{byte(i)})
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 8)
		for i := 0; i < 10; i++ {
			r1.Recv(p, buf)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if r0.Retransmits != 0 {
		t.Fatalf("%d spurious retransmissions on a lossless link", r0.Retransmits)
	}
}

func TestRUDPWindowBlocks(t *testing.T) {
	s, cl := newCluster(2)
	r0 := NewRUDP(cl.UDPSocket(0, OverATM), nil)
	r1 := NewRUDP(cl.UDPSocket(1, OverATM), nil)
	r0.Window = 4
	const msgs = 12
	var sendDone sim.Time
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			r0.Send(p, 1, []byte{byte(i)})
		}
		sendDone = p.Now()
	})
	s.Spawn("rx", func(p *sim.Proc) {
		p.Advance(100 * time.Millisecond)
		buf := make([]byte, 8)
		for i := 0; i < msgs; i++ {
			r1.Recv(p, buf)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone < sim.Time(100*time.Millisecond) {
		t.Fatalf("12 sends with window 4 finished at %v, before receiver started acking", sendDone)
	}
}

// The classic Nagle x delayed-ack interaction: a one-way stream of small
// writes stalls on the 200 ms ack timer; with TCP_NODELAY semantics
// (default) the same stream flows at wire speed.
func TestNagleDelayedAckStall(t *testing.T) {
	run := func(nagle bool) sim.Time {
		s, cl := newCluster(2)
		a, b := cl.TCPPair(0, 1, OverEthernet)
		if nagle {
			a.Nagle, b.Nagle = true, true
		}
		const msgs, sz = 10, 100
		var done sim.Time
		s.Spawn("tx", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				a.Write(p, make([]byte, sz))
			}
		})
		s.Spawn("rx", func(p *sim.Proc) {
			buf := make([]byte, msgs*sz)
			b.ReadFull(p, buf)
			done = p.Now()
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	nodelay := run(false)
	nagle := run(true)
	if nodelay > sim.Time(50*time.Millisecond) {
		t.Fatalf("nodelay stream took %v", nodelay)
	}
	if nagle < sim.Time(150*time.Millisecond) {
		t.Fatalf("nagle+delayed-ack stream took only %v; expected a ~200ms ack stall", nagle)
	}
}

// Bidirectional traffic escapes the stall: acks piggyback on reverse data.
func TestNaglePingPongPiggyback(t *testing.T) {
	s, cl := newCluster(2)
	a, b := cl.TCPPair(0, 1, OverEthernet)
	for _, c := range []*TCP{a, b} {
		c.Nagle = true
	}
	var rtt sim.Duration
	const iters = 5
	s.Spawn("h0", func(p *sim.Proc) {
		buf := make([]byte, 64)
		start := p.Now()
		for i := 0; i < iters; i++ {
			a.Write(p, make([]byte, 64))
			a.ReadFull(p, buf)
		}
		rtt = sim.Duration(p.Now()-start) / iters
	})
	s.Spawn("h1", func(p *sim.Proc) {
		buf := make([]byte, 64)
		for i := 0; i < iters; i++ {
			b.ReadFull(p, buf)
			b.Write(p, make([]byte, 64))
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rtt > 20*time.Millisecond {
		t.Fatalf("ping-pong RTT %v with Nagle; piggybacked acks should avoid the 200ms stall", rtt)
	}
}

// Data held by Nagle is never lost or reordered.
func TestNagleStreamIntegrity(t *testing.T) {
	s, cl := newCluster(2)
	a, b := cl.TCPPair(0, 1, OverATM)
	a.Nagle, b.Nagle = true, true
	const total = 50_000
	src := make([]byte, total)
	for i := range src {
		src[i] = byte(i * 11)
	}
	var got []byte
	s.Spawn("tx", func(p *sim.Proc) {
		for off := 0; off < total; {
			n := 1 + (off*7)%900
			if off+n > total {
				n = total - off
			}
			a.Write(p, src[off:off+n])
			off += n
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 4096)
		for len(got) < total {
			n := b.Read(p, buf)
			got = append(got, buf[:n]...)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("nagle reordered or lost bytes")
	}
}

// U-Net (the paper's future-work direction): the user-level path must cut
// the kernel round trip by an order of magnitude, landing near the
// SOSP'95 measurements (~65-100 us small-message RTT).
func TestUNetRTTNearPaper(t *testing.T) {
	s, cl := newCluster(2)
	u0 := cl.UNetSocket(0)
	u1 := cl.UNetSocket(1)
	var rtt sim.Duration
	const iters = 10
	s.Spawn("h0", func(p *sim.Proc) {
		buf := make([]byte, 8)
		start := p.Now()
		for i := 0; i < iters; i++ {
			u0.SendTo(p, 1, make([]byte, 8))
			u0.RecvFrom(p, buf)
		}
		rtt = sim.Duration(p.Now()-start) / iters
	})
	s.Spawn("h1", func(p *sim.Proc) {
		buf := make([]byte, 8)
		for i := 0; i < iters; i++ {
			u1.RecvFrom(p, buf)
			u1.SendTo(p, 0, make([]byte, 8))
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	us := float64(rtt) / 1e3
	if us < 40 || us > 130 {
		t.Fatalf("unet 8B RTT = %.1f us, want tens of microseconds (U-Net ~65)", us)
	}
	tcp := tcpPingPong(t, OverATM, 8, 5)
	if sim.Duration(rtt)*8 > tcp {
		t.Fatalf("unet RTT %v not an order of magnitude under tcp %v", rtt, tcp)
	}
}

func TestUNetPayloadIntegrityAndOrder(t *testing.T) {
	s, cl := newCluster(2)
	u0 := cl.UNetSocket(0)
	u1 := cl.UNetSocket(1)
	const msgs = 20
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			data := make([]byte, 100+i)
			for j := range data {
				data[j] = byte(i + j)
			}
			u0.SendTo(p, 1, data)
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 256)
		for i := 0; i < msgs; i++ {
			n, src := u1.RecvFrom(p, buf)
			if src != 0 || n != 100+i {
				t.Errorf("msg %d: n=%d src=%d", i, n, src)
				return
			}
			for j := 0; j < n; j++ {
				if buf[j] != byte(i+j) {
					t.Errorf("msg %d corrupt at %d", i, j)
					return
				}
			}
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
