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

	reads    []sockRead                  // host -> the read in its syscall charge
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
		reads:   make([]sockRead, n),
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

// sockRead is a socket read past its syscall, per host so a socket stays
// small. Its Relay is the copy: the kernel runs it at the syscall's wake if
// bytes are buffered then, the reader once woken if not.
type sockRead struct {
	cl   *Cluster
	wake *sim.Cond  // the socket's arrivals
	tcp  *TCP       // a stream ...
	buf  []byte     // ... and the reader's buffer
	q    *recvQueue // or a datagram socket's queue ...
	max  int        // ... and the bytes of a datagram the reader takes
	n    int        // bytes copied
	d    Datagram   // the datagram taken
}

// ready reports whether there are bytes to copy.
func (r *sockRead) ready() bool {
	return r.tcp != nil && r.tcp.Readable() || r.q != nil && r.q.Readable()
}

func (r *sockRead) Relay() (sim.Cat, sim.Duration, sim.Step) {
	if !r.ready() {
		return 0, 0, sim.Decline
	}
	if c := r.tcp; c != nil {
		r.n, _ = c.Take(r.buf)
	} else {
		r.d = r.q.take(r.max)
		r.n = len(r.d.Data)
	}
	return sim.Syscall, r.cl.copyCharge(r.n), sim.Last
}

// readCharge is a read syscall's charge over medium k: Table 1's 65 or
// 85 µs, by driver.
func (cl *Cluster) readCharge(k MediumKind) sim.Duration {
	if k == OverEthernet {
		return cl.Costs.SyscallRead + cl.Costs.ReadExtraEth
	}
	return cl.Costs.SyscallRead + cl.Costs.ReadExtraATM
}

// copyCharge is a read's copy of n bytes out of the kernel.
func (cl *Cluster) copyCharge(n int) sim.Duration { return sim.Duration(n) * cl.Costs.CopyPerByte }

// read is a socket read on host h over medium k: the syscall, then r's
// copy, relayed at its wake unless another read holds the host's record. A
// reader that finds nothing buffered blocks, and pays the kernel wakeup.
// It returns r as the copy left it. The chained reads (atm.TCP's Take,
// RUDP's drain) charge the same steps.
func (cl *Cluster) read(p *sim.Proc, h int, k MediumKind, r sockRead) sockRead {
	d := cl.readCharge(k)
	r.cl = cl
	if slot := &cl.reads[h]; slot.cl == nil {
		*slot = r
		copied := p.SpendThen(sim.Syscall, d, slot)
		if r, *slot = *slot, (sockRead{}); copied {
			return r
		}
	} else {
		p.Spend(sim.Syscall, d)
	}
	if !r.ready() {
		for !r.ready() {
			r.wake.Wait(p)
		}
		p.Spend(sim.Kernel, cl.Costs.KernelWakeup)
	}
	_, d, _ = r.Relay()
	p.Spend(sim.Syscall, d)
	return r
}
