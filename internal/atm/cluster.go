package atm

import (
	"repro/internal/sim"
)

// Cluster is the modeled testbed: n workstation hosts attached to both the
// shared Ethernet and the ATM switch, as in the paper's evaluation.
//
// The cluster is built on whatever scheduler the world was given: each
// host's sockets, FIFOs, and timers stay on that host's node scheduler
// (SchedOf), the ATM switch hop routes between lanes, and the shared
// Ethernet segment homes on S as a sim.Stage. SwitchDelay is the lookahead
// bound (the Ethernet spans are far coarser and accept any lookahead the
// switch accepts).
type Cluster struct {
	S     *sim.Scheduler // world-global bookkeeping; per-host work uses SchedOf
	Costs Costs
	N     int
	Eth   *Ethernet
	Atm   *ATMNet

	// Ledgers are the hosts' books (nil: none) for device time: a frame's
	// serialization is the sender's wire, input processing the receiver's kernel.
	Ledgers []*sim.Ledger

	// Every protocol stack reaches the wire through these fault injectors
	// (transparent until SetFaults installs a policy).
	ethInj, atmInj *Injector

	udpPorts map[MediumKind]map[int]*UDP // medium -> host -> bound socket
	aal4     map[int]*AAL4               // host -> Fore API socket
	unet     map[int]*UNet               // host -> user-level endpoint
}

// NewCluster builds an n-host cluster for the world built on s.
func NewCluster(s *sim.Scheduler, n int, c Costs) *Cluster {
	cl := &Cluster{
		S:       s,
		Costs:   c,
		N:       n,
		Ledgers: make([]*sim.Ledger, n), // one table for both media
		udpPorts: map[MediumKind]map[int]*UDP{
			OverEthernet: {},
			OverATM:      {},
		},
	}
	cl.Eth, cl.Atm = NewEthernet(s, n, c, cl.Ledgers), NewATMNet(s, n, c, cl.Ledgers)
	cl.ethInj = NewInjector(s, n, cl.Eth)
	cl.atmInj = NewInjector(s, n, cl.Atm)
	return cl
}

// SchedOf reports host h's node scheduler. Per-host protocol state — socket
// buffers, conds, retransmit timers — must live on it.
func (cl *Cluster) SchedOf(h int) *sim.Scheduler { return cl.S.Node(h, cl.N) }

// Medium returns the requested wire, behind its fault injector.
func (cl *Cluster) Medium(k MediumKind) Medium {
	return cl.Injector(k)
}

// Injector returns the fault injector in front of medium k.
func (cl *Cluster) Injector(k MediumKind) *Injector {
	if k == OverEthernet {
		return cl.ethInj
	}
	return cl.atmInj
}

// SetFaults installs one fault policy on both media (each injector draws
// from its own stream of the policy seed).
func (cl *Cluster) SetFaults(f Faults) error {
	if err := cl.ethInj.Set(f); err != nil {
		return err
	}
	return cl.atmInj.Set(f)
}

// readExtra is the per-read stack cost that differs between the Ethernet
// driver and the Fore STREAMS stack (Table 1's 65 vs 85 µs reads).
func (cl *Cluster) readExtra(k MediumKind) sim.Duration {
	if k == OverEthernet {
		return cl.Costs.ReadExtraEth
	}
	return cl.Costs.ReadExtraATM
}
