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
)

// TransportKind selects the cluster transport protocol.
type TransportKind int

const (
	// TCP carries MPI over per-pair TCP connections.
	TCP TransportKind = iota
	// UDP carries MPI over the reliable-UDP layer (sequence numbers,
	// acks, retransmission).
	UDP
	// UNET carries MPI over the U-Net-style user-level endpoints — the
	// kernel-bypass future work the paper's related-work section points
	// at. ATM only.
	UNET
	// SHM carries MPI over a coherent shared-memory segment mapped by all
	// hosts (the CXL-style attached-memory analogue of the Meiko's
	// remote-store hardware): direct stores, no kernel, no frames — and
	// native one-sided remote memory.
	SHM
)

func (k TransportKind) String() string {
	switch k {
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	case SHM:
		return "shm"
	default:
		return "unet"
	}
}

// Config describes a cluster job.
type Config struct {
	Hosts     int
	Transport TransportKind
	Network   atm.MediumKind // OverATM or OverEthernet
	// Lanes > 1 builds the world on the sharded kernel: hosts block-mapped
	// onto that many lanes, the ATM switch hop routing between them, the
	// shared Ethernet homed on lane 0 as a stage, and SwitchDelay (the
	// segment latency for SHM) as the lookahead bound. Fault injection
	// composes with lanes: each (src, dst) link draws from its own
	// seed-derived RNG stream, so lossy sweeps shard too — single-lane
	// lossy runs stay bit-identical to earlier releases via the legacy
	// world-global stream.
	Lanes int
	// Eager is the eager/rendezvous crossover in bytes (0 = DefaultEager).
	Eager int
	// CreditBytes is the per-(sender,receiver) reserved memory
	// (0 = DefaultCredit).
	CreditBytes int
	// Costs overrides the kernel/wire cost model; nil means DefaultCosts.
	Costs *atm.Costs
	// LossRate injects datagram loss — shorthand for Faults{Loss: rate}.
	LossRate float64
	// Faults installs a full fault policy on both media (loss, delay,
	// jitter, reordering, duplication, partitions; see atm.Faults). When
	// both Faults and LossRate are set, Faults wins.
	Faults *atm.Faults
	// TCPNagle disables the implicit TCP_NODELAY: connections run with
	// Nagle coalescing and delayed acks, the configuration every
	// low-latency MPI of the era had to turn off. For the ablation.
	TCPNagle bool
	// RUDPMaxRetries overrides the reliable-UDP retry budget before a link
	// is declared dead (0 = the layer's default; tests shorten it).
	RUDPMaxRetries int
	// RUDPAckDelay enables delayed acks on the reliable-UDP layer: pure
	// acks wait this long for reverse data to piggyback them (0 = ack
	// immediately, the paper's measured configuration).
	RUDPAckDelay sim.Duration
	// NoRTR disables the RDMA-write rendezvous (pre-posted receive
	// advertisements), pinning large transfers to the two-sided RTS/CTS
	// protocol. For the rendezvous ablation.
	NoRTR bool
	Seed  int64
}

// DefaultEager is the cluster crossover: socket round trips cost ~1 ms, so
// piggybacking data with the envelope pays until the bounce-copy cost
// rivals a rendezvous round trip (§5.1: "piggybacking data is more
// important than in the Meiko implementation").
const DefaultEager = 16 * 1024

// DefaultCredit is the per-pair reserved receiver memory.
const DefaultCredit = 64 * 1024

// NewWorld builds the cluster and per-rank endpoints for cfg.
func NewWorld(cfg Config) (*mpi.World, *atm.Cluster) {
	w, cl, err := newWorld(cfg)
	if err != nil {
		panic(err) // direct Config construction with an invalid fault policy
	}
	return w, cl
}

func newWorld(cfg Config) (*mpi.World, *atm.Cluster, error) {
	costs := atm.DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	faults := cfg.Faults
	if faults == nil && cfg.LossRate > 0 {
		faults = &atm.Faults{Seed: cfg.Seed, Loss: cfg.LossRate}
	}
	if faults != nil && cfg.Transport == SHM {
		return nil, nil, fmt.Errorf("cluster/shm: fault injection is not supported (a memory segment has no lossy wire)")
	}
	// The minimum cross-lane latency — the switch forwarding delay, or the
	// segment visibility latency on shm — is the lookahead bound.
	lookahead := costs.SwitchDelay
	if cfg.Transport == SHM {
		lookahead = costs.ShmLatency
	}
	s := sim.NewKernel(cfg.Seed+1, cfg.Lanes, cfg.Hosts, lookahead, 500_000_000)
	cl := atm.NewCluster(s, cfg.Hosts, costs)
	if faults != nil {
		if err := cl.SetFaults(*faults); err != nil {
			return nil, nil, err
		}
	}
	eager := cfg.Eager
	if eager == 0 {
		eager = DefaultEager
	}
	credit := cfg.CreditBytes
	if credit == 0 {
		credit = DefaultCredit
	}

	n := cfg.Hosts
	eps := make([]core.Endpoint, n)
	if cfg.Transport == SHM {
		// The segment is the store-based fabric under shm's cost table (see
		// shm.go); no credit scheme, so Credits stays 0.
		fab := core.NewMemFabric(s, costs.ShmLatency, eager)
		fab.PerByte, fab.PollCost = costs.ShmPerByte, shmPollCost
		for i := 0; i < n; i++ {
			eng := core.NewEngine(cl.SchedOf(i), i, n, shmEngineCosts(), nil)
			fab.Attach(eng)
			eps[i] = eng
		}
	} else {
		trs := make([]*transport, n)
		for i := 0; i < n; i++ {
			eng := core.NewEngine(cl.SchedOf(i), i, n, clusterEngineCosts(), nil)
			trs[i] = newTransport(cl, eng, i, n, eager, credit, cfg.Transport, cfg.Network, trs)
			trs[i].noRTR = cfg.NoRTR
			eng.SetTransport(trs[i])
			eps[i] = eng
		}
		// Static all-pairs TCP mesh, as in the paper's setup.
		if cfg.Transport == TCP {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					a, b := cl.TCPPair(i, j, cfg.Network)
					if cfg.TCPNagle {
						a.Nagle, a.DelayedAck = true, true
						b.Nagle, b.DelayedAck = true, true
					}
					trs[i].attachConn(j, a)
					trs[j].attachConn(i, b)
				}
			}
		} else if cfg.Transport == UDP {
			for i := 0; i < n; i++ {
				r := atm.NewRUDP(cl.UDPSocket(i, cfg.Network))
				if cfg.RUDPMaxRetries > 0 {
					r.MaxRetries = cfg.RUDPMaxRetries
				}
				r.AckDelay = cfg.RUDPAckDelay
				trs[i].attachDgram(r)
			}
		} else {
			for i := 0; i < n; i++ {
				trs[i].attachDgram(unetLink{cl.UNetSocket(i)})
			}
		}
	}

	w := mpi.NewWorld(s, eps)
	// Failure-detection latency: how long after a death survivors take to
	// declare the peer dead (see mpi.World.ScheduleKills). Scaled to each
	// transport's loss-recovery horizon — RUDP must let a few retransmission
	// timeouts expire before silence means death, TCP a couple of RTTs, the
	// kernel-bypass and shared-memory paths far less.
	switch cfg.Transport {
	case SHM:
		w.FTDetect = 50 * time.Microsecond
	case TCP:
		w.FTDetect = 2 * time.Millisecond
	case UDP:
		w.FTDetect = 40 * time.Millisecond
	default: // UNET
		w.FTDetect = 500 * time.Microsecond
	}
	return w, cl, nil
}

// Run executes body as an MPI job on the configured cluster.
func Run(cfg Config, body func(c *mpi.Comm) error) (*mpi.Report, error) {
	w, _ := NewWorld(cfg)
	return mpi.Launch(w, body)
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
