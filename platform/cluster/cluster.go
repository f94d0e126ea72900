// Package cluster runs MPI jobs on the modeled SGI workstation cluster —
// the paper's second platform — over TCP or reliable UDP, on either the
// 10 Mbit/s shared Ethernet or the 155 Mbit/s Fore ATM switch.
//
// The device re-implements the primitives the Meiko implementation
// assumes (paper §5.1) on stream sockets: sending an envelope, sending an
// envelope with piggybacked data, and "setting remote events and sending
// DMA data" for rendezvous payloads. Every protocol message carries the
// paper's 25 bytes of control information: 1 byte of message type, 4 bytes
// of returned credit, and the 20-byte envelope. Flow control is the
// paper's credit scheme: the receiver reserves memory per sender, senders
// transmit optimistically against it, and freed space flows back
// piggybacked (or explicitly when traffic is one-sided).
package cluster

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/mpi"
	"repro/platform/registry"
)

// DefaultEager is the cluster crossover: socket round trips cost ~1 ms, so
// piggybacking data with the envelope pays until the bounce-copy cost
// rivals a rendezvous round trip (§5.1: "piggybacking data is more
// important than in the Meiko implementation").
const DefaultEager = 16 * 1024

// DefaultCredit is the per-pair reserved receiver memory.
const DefaultCredit = 64 * 1024

// build constructs the cluster world s describes on one of the four
// transports:
//
//   - "tcp": per-pair TCP connections, a static all-pairs mesh.
//   - "udp": the reliable-UDP layer (sequence numbers, acks,
//     retransmission).
//   - "unet": U-Net-style user-level endpoints — the kernel-bypass future
//     work the paper's related-work section points at. ATM only.
//   - "shm": a coherent shared-memory segment mapped by all hosts (the
//     CXL-style attached-memory analogue of the Meiko's remote-store
//     hardware): direct stores, no kernel, no frames — and native one-sided
//     remote memory.
//
// s.Lanes > 1 builds the world on the sharded kernel: hosts block-mapped
// onto that many lanes, the ATM switch hop routing between them, the shared
// Ethernet homed on lane 0 as a stage, and SwitchDelay (the segment latency
// for shm) as the lookahead bound. Fault injection is the same on every
// kernel: each (src, dst) link draws from its own stream, derived from the
// seed, the endpoints and the medium.
//
// The per-rank socket transports (nil on shm) are returned for in-package
// tests, which reach the wire under a built world through them.
func build(s registry.Spec, kind string) (*mpi.World, []*transport, error) {
	faults, err := faultPolicy(s)
	if err != nil {
		return nil, nil, err
	}
	net := atm.OverATM
	switch s.Network {
	case "", "atm":
	case "eth":
		net = atm.OverEthernet
	default:
		return nil, nil, fmt.Errorf("cluster: unknown network %q (atm | eth)", s.Network)
	}
	costs := atm.DefaultCosts()
	if s.Costs != nil {
		c, ok := s.Costs.(*atm.Costs)
		if !ok {
			return nil, nil, fmt.Errorf("cluster: spec costs are %T, want *atm.Costs", s.Costs)
		}
		costs = *c
	}
	if kind == "unet" && net != atm.OverATM {
		return nil, nil, fmt.Errorf("cluster/unet: the U-Net endpoint exists only on the ATM fabric (network %q)", s.Network)
	}
	if faults != nil && kind == "shm" {
		return nil, nil, fmt.Errorf("cluster/shm: fault injection is not supported (a memory segment has no lossy wire)")
	}
	// TCP segments and U-Net frames are never droppable (the model omits
	// TCP's loss recovery; the switch links are flow controlled), so the
	// loss-family knobs would do nothing there. Neither wire resequences, so
	// Jitter, which lets a frame overtake its predecessor, would break it.
	// Delay and Partition apply to every frame.
	if kind == "tcp" || kind == "unet" {
		knob := ""
		switch {
		case s.LossRate > 0:
			knob = "LossRate"
		case s.DropEveryN > 0:
			knob = "DropEveryN"
		case s.Reorder > 0:
			knob = "Reorder"
		case s.Duplicate > 0:
			knob = "Duplicate"
		case s.Jitter > 0:
			knob = "Jitter"
		}
		if knob != "" {
			return nil, nil, fmt.Errorf("cluster/%s: Spec.%s is set, but a %s frame is never dropped, reordered or duplicated (transport udp honours it)", kind, knob, kind)
		}
	}
	// The minimum cross-lane latency — the switch forwarding delay, or the
	// segment visibility latency on shm — is the lookahead bound.
	lookahead := costs.SwitchDelay
	if kind == "shm" {
		lookahead = costs.ShmLatency
	}
	n := s.Ranks
	sched := sim.NewKernel(s.Seed+1, s.Lanes, n, lookahead, 500_000_000)
	cl := atm.NewCluster(sched, n, costs)
	if faults != nil {
		if err := cl.SetFaults(*faults); err != nil {
			return nil, nil, fmt.Errorf("cluster: %v", err)
		}
	}
	eager := s.Eager
	if eager == 0 {
		eager = DefaultEager
	}
	credit := s.Credit
	if credit == 0 {
		credit = DefaultCredit
	}

	eps := make([]core.Endpoint, n)
	var trs []*transport
	if kind == "shm" {
		// The segment is the store-based fabric under shm's cost table (see
		// shm.go); no credit scheme, so Credits stays 0.
		fab := core.NewMemFabric(sched, costs.ShmLatency, eager)
		fab.PerByte, fab.PollCost = costs.ShmPerByte, shmPollCost
		for i := 0; i < n; i++ {
			eng := core.NewEngine(cl.SchedOf(i), i, n, shmEngineCosts())
			fab.Attach(eng)
			eps[i] = eng
		}
	} else {
		trs = make([]*transport, n)
		for i := 0; i < n; i++ {
			eng := core.NewEngine(cl.SchedOf(i), i, n, clusterEngineCosts())
			trs[i] = newTransport(cl, eng, i, n, eager, credit, kind, trs)
			trs[i].noRTR = s.NoRTR
			eng.SetTransport(trs[i])
			eps[i] = eng
		}
		switch kind {
		case "tcp":
			// Static all-pairs TCP mesh, as in the paper's setup.
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					a, b := cl.TCPPair(i, j, net)
					a.Nagle, b.Nagle = s.TCPNagle, s.TCPNagle
					trs[i].attachConn(j, a)
					trs[j].attachConn(i, b)
				}
			}
		case "udp":
			for i := 0; i < n; i++ {
				trs[i].attachDgram(atm.NewRUDP(cl.UDPSocket(i, net)))
			}
		default: // unet
			for i := 0; i < n; i++ {
				trs[i].attachDgram(unetLink{cl.UNetSocket(i)})
			}
		}
	}

	w := mpi.NewWorld(sched, eps)
	// Failure-detection latency: how long after a death survivors take to
	// declare the peer dead (see mpi.World.ScheduleKills). Scaled to each
	// transport's loss-recovery horizon — RUDP must let a few retransmission
	// timeouts expire before silence means death, TCP a couple of RTTs, the
	// kernel-bypass and shared-memory paths far less.
	switch kind {
	case "shm":
		w.FTDetect = 50 * time.Microsecond
	case "tcp":
		w.FTDetect = 2 * time.Millisecond
	case "udp":
		w.FTDetect = 40 * time.Millisecond
	default: // unet
		w.FTDetect = 500 * time.Microsecond
	}
	return w, trs, nil
}

// clusterEngineCosts carries Table 1's user-level charges: 35 µs matching
// on the 133 MHz SGI, plus bounce-buffer copies and call bookkeeping.
func clusterEngineCosts() core.EngineCosts {
	return core.EngineCosts{
		Match:        18 * time.Microsecond, // 2 scans per message = the paper's ~35 us
		CopyBase:     2 * time.Microsecond,
		CopyPerByte:  60 * time.Nanosecond,
		SendOverhead: 10 * time.Microsecond,
		RecvOverhead: 10 * time.Microsecond,
	}
}
