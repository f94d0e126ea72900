package atm

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// oracleDeliver is ATMNet.Deliver as it was when the uplink half of the
// chain took three events — a timer for the outbound SAR, the uplink
// reservation's completion, the switch hop — kept verbatim as the reference
// for the one-event path that replaced it.
func oracleDeliver(a *ATMNet, src, dst, n int, opts DeliverOpts, deliver func()) {
	wireBytes := AAL5WireBytes(n)
	if opts.AAL34 {
		wireBytes = AAL34WireBytes(n)
	}
	wire := sim.Duration(wireBytes) * a.c.ATMPerByte
	ss := a.schedOf(src)
	ss.After(a.c.I960PerPacket, func() {
		a.up[src].UseAsync(wire, func() {
			ss.RouteAfter(a.schedOf(dst).LaneID(), a.c.SwitchDelay, func() {
				q := a.down[dst]
				q.enqueue(q.s.Now(), src, wire, a.c.I960PerPacket+a.c.DriverATMPerFrame, deliver)
			})
		})
	})
}

type wirePacket struct {
	at       sim.Time
	src, dst int
	n        int
	aal34    bool
}

type wireArrival struct {
	at       sim.Time
	src, dst int
}

// wireSchedule draws a packet schedule over hosts hosts that hits the cases
// the uplink shortcut has to get right: back-to-back bursts from one host
// (the uplink queues), several hosts sending to one port in the same instant
// (the arbiter breaks the tie), and sizes from empty to a full MTU in both
// adaptation layers.
func wireSchedule(rng *rand.Rand, hosts, n int) []wirePacket {
	var ps []wirePacket
	var now sim.Time
	pkt := func(src, dst int) {
		if dst == src {
			dst = (dst + 1) % hosts
		}
		ps = append(ps, wirePacket{at: now, src: src, dst: dst, n: rng.Intn(ATMMTU - TCPIPHeader + 1), aal34: rng.Intn(4) == 0})
	}
	for len(ps) < n {
		switch rng.Intn(3) {
		case 0: // burst: one uplink, several packets in one instant
			src := rng.Intn(hosts)
			for k := 2 + rng.Intn(4); k > 0; k-- {
				pkt(src, rng.Intn(hosts))
			}
		case 1: // incast: every other host onto one port in one instant
			dst := rng.Intn(hosts)
			for src := 0; src < hosts; src++ {
				if src != dst {
					pkt(src, dst)
				}
			}
		default:
			pkt(rng.Intn(hosts), rng.Intn(hosts))
		}
		now += sim.Time(rng.Intn(300_000)) // 0-300 µs: from overlapping to idle
	}
	return ps
}

// runWire plays ps through deliver on a fresh fabric — standalone, or
// sharded when lanes > 1 — and reports the arrivals in canonical order and
// the events the kernel ran.
func runWire(t *testing.T, hosts, lanes int, ps []wirePacket, deliver func(a *ATMNet, src, dst, n int, opts DeliverOpts, fn func())) ([]wireArrival, uint64) {
	t.Helper()
	c := DefaultCosts()
	s := sim.NewKernel(1, lanes, hosts, c.SwitchDelay, 0)
	a := NewATMNet(s, hosts, c, make([]*sim.Ledger, hosts))
	got := make([][]wireArrival, hosts) // per destination: lanes must not share
	for _, pk := range ps {
		pk := pk
		a.schedOf(pk.src).At(pk.at, func() {
			deliver(a, pk.src, pk.dst, pk.n, DeliverOpts{AAL34: pk.aal34}, func() {
				got[pk.dst] = append(got[pk.dst], wireArrival{a.schedOf(pk.dst).Now(), pk.src, pk.dst})
			})
		})
	}
	events := drive(t, s)
	return slices.Concat(got...), events
}

// drive runs the world built on s to completion on whichever kernel
// sim.NewKernel picked, and reports the events it executed.
func drive(t *testing.T, s *sim.Scheduler) uint64 {
	t.Helper()
	run, events := s.Run, s.Events
	if sh := s.Shard(); sh != nil {
		run, events = sh.Run, sh.Events
	}
	if _, err := run(); err != nil {
		t.Fatal(err)
	}
	return events()
}

// The one-event uplink must deliver every packet of a random schedule at
// the instant the three-event chain did, per destination in the same order,
// with exactly the two events per packet fewer — on a standalone scheduler
// and on four lanes.
func TestUplinkShortcutMatchesThreeEventChain(t *testing.T) {
	const hosts = 6
	for seed := int64(1); seed <= 20; seed++ {
		ps := wireSchedule(rand.New(rand.NewSource(seed)), hosts, 200)
		var ref []wireArrival
		for _, lanes := range []int{1, 4} {
			want, wantEv := runWire(t, hosts, lanes, ps, oracleDeliver)
			got, gotEv := runWire(t, hosts, lanes, ps, func(a *ATMNet, src, dst, n int, opts DeliverOpts, fn func()) {
				a.Deliver(src, dst, n, opts, fn)
			})
			if len(got) != len(ps) {
				t.Fatalf("seed %d lanes %d: %d of %d packets delivered", seed, lanes, len(got), len(ps))
			}
			if !slices.Equal(got, want) {
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d lanes %d: arrival %d is %+v, the chain's %+v", seed, lanes, i, got[i], want[i])
					}
				}
			}
			if saved := wantEv - gotEv; saved != 2*uint64(len(ps)) {
				t.Fatalf("seed %d lanes %d: %d events against the chain's %d, want exactly %d fewer", seed, lanes, gotEv, wantEv, 2*len(ps))
			}
			if ref == nil {
				ref = got
			} else if !slices.Equal(got, ref) {
				t.Fatalf("seed %d: 4 lanes and standalone disagree", seed)
			}
		}
	}
}

// Two U-Net senders reaching one port in the same instant must resolve the
// tie the same way on both kernels: through the port arbiter, lowest source
// port first, whatever order the senders' events ran in. U-Net used to
// reserve the downlink in event-arrival order, so spawning host 1 before
// host 0 let host 1 win on a standalone scheduler and lose on a shard.
func TestUNetIncastTieIsKernelIndependent(t *testing.T) {
	type recvd struct {
		src int
		at  sim.Time // when Recv returned
	}
	for _, lanes := range []int{1, 3} {
		c := DefaultCosts()
		s := sim.NewKernel(1, lanes, 3, c.SwitchDelay, 0)
		cl := NewCluster(s, 3, c)
		for _, h := range []int{1, 0} {
			h := h
			cl.SchedOf(h).Spawn("send", func(p *sim.Proc) {
				cl.UNetSocket(h).Send(p, 2, make([]byte, 1024))
			})
		}
		var got []recvd
		cl.SchedOf(2).Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				d := cl.UNetSocket(2).Recv(p, UNetMaxPDU)
				got = append(got, recvd{d.Src, p.Now()})
			}
		})
		drive(t, s)
		if want := []recvd{{0, 273144}, {1, 337584}}; !slices.Equal(got, want) {
			t.Errorf("%d lanes: received %v, want %v", lanes, got, want)
		}
	}
}

// After one warm-up burst has sized the frame, hop and event pools, 1 000
// more 1 KiB round trips over TCP/ATM — a segment and a window update each
// way — allocate nothing.
func TestTCPWireAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// On one P, as testing.AllocsPerRun measures: the runtime's own work
	// after a GC or a stop of the world (the scavenger re-arming its timer,
	// a new M for an idle P) then cannot allocate inside the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, cl := newCluster(2)
	a, b := cl.TCPPair(0, 1, OverATM)
	const trips = 1000
	var delta uint64
	s.Spawn("ping", func(p *sim.Proc) {
		buf := make([]byte, 1024)
		burst := func() {
			for i := 0; i < trips; i++ {
				a.Write(p, buf)
				a.ReadFull(p, buf)
			}
			p.Advance(time.Millisecond) // let the last window update land
		}
		burst()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		burst()
		runtime.ReadMemStats(&m1)
		delta = m1.Mallocs - m0.Mallocs
	})
	s.Spawn("pong", func(p *sim.Proc) {
		buf := make([]byte, 1024)
		for i := 0; i < 2*trips; i++ {
			b.ReadFull(p, buf)
			b.Write(p, buf)
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if a.BytesIn != 2*trips*1024 || b.BytesIn != 2*trips*1024 {
		t.Fatalf("bytes in: %d and %d of %d", a.BytesIn, b.BytesIn, 2*trips*1024)
	}
	if delta != 0 {
		t.Fatalf("%d warm round trips allocated %d objects", trips, delta)
	}
}

// The same over UDP/ATM under RUDP: once a warm-up burst has sized the
// transmission and retransmission records, the frame lists, the queues and
// the hop pools, 1 000 more 1 KiB round trips allocate at most a slack of
// 2: every Send's wire frame and every pure ack is a recycled Frame
// (DESIGN §9).
func TestUDPWireAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s, cl := newCluster(2)
	a, b := rudpPair(cl)
	const trips = 1000
	var delta uint64
	s.Spawn("ping", func(p *sim.Proc) {
		buf := make([]byte, 1024)
		burst := func() {
			for i := 0; i < trips; i++ {
				if err := a.Send(p, 1, buf); err != nil {
					t.Error(err)
				}
				if _, _, err := a.Recv(p, buf); err != nil {
					t.Error(err)
				}
			}
			// Let the last ack land and every retransmission timer expire,
			// which is what recycles a record.
			p.Advance(time.Second)
		}
		burst()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		burst()
		runtime.ReadMemStats(&m1)
		delta = m1.Mallocs - m0.Mallocs
	})
	s.Spawn("pong", func(p *sim.Proc) {
		buf := make([]byte, 1024)
		for i := 0; i < 2*trips; i++ {
			if _, _, err := b.Recv(p, buf); err != nil {
				t.Error(err)
			}
			if err := b.Send(p, 0, buf); err != nil {
				t.Error(err)
			}
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if a.PureAcks != 2*trips || b.PureAcks != 2*trips {
		t.Fatalf("pure acks: %d and %d of %d", a.PureAcks, b.PureAcks, 2*trips)
	}
	if delta > 2 {
		t.Fatalf("%d warm round trips allocated %d objects, want at most 2", trips, delta)
	}
}
