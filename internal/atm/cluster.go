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

	reads    []SockRead                  // host -> its read record (see record)
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
		reads:   make([]SockRead, n),
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

// SockRead is one socket read as steps (a sim.Stepper): the syscall (on
// U-Net, the queue poll); at its wake, the copy of what is buffered, or
// with nothing buffered a block on the socket and, once woken, the kernel
// wakeup before the copy (a user-level read, Sync, has none to pay); at
// the copy's wake, done. A zero charge is skipped. Every read of the model
// runs these steps: a proc's (read), a TCP frame's parse, RUDP's drain and
// the U-Net receive.
type SockRead struct {
	cl  *Cluster
	sys sim.Duration // the syscall's charge
	tcp *TCP         // a stream ...
	buf []byte       // ... and the reader's buffer
	q   *recvQueue   // or a datagram socket's queue
	n   int          // the bytes of a datagram the reader takes; once copied, the bytes copied
	d   Datagram     // the datagram taken
	cat sim.Cat      // the syscall's and the copy's category
	at  uint8        // where the read stands
}

// Where a read stands.
const (
	readSyscall = iota // the syscall is next
	readCopy           // at the syscall's wake: copy
	readBlocked        // nothing was buffered: at a wake, the kernel wakeup
	readDone           // at the copy's wake
)

// sysRead is a read syscall over medium k, Table 1's 65 or 85 µs by
// driver; the caller names the stream or the queue.
func (cl *Cluster) sysRead(k MediumKind) SockRead {
	sys := cl.Costs.SyscallRead + cl.Costs.ReadExtraATM
	if k == OverEthernet {
		sys = cl.Costs.SyscallRead + cl.Costs.ReadExtraEth
	}
	return SockRead{cl: cl, cat: sim.Syscall, sys: sys}
}

// Done gives the read's record back (see record) and reports the bytes it
// copied.
func (r *SockRead) Done() int {
	n := r.n
	*r = SockRead{}
	return n
}

func (r *SockRead) Relay() (sim.Cat, sim.Duration, sim.Step) { return sim.StepRelay(r.Step()) }

func (r *SockRead) Step() (sim.Cat, sim.Duration, *sim.Cond) {
	for {
		c, d := r.cat, sim.Duration(0)
		switch r.at {
		case readSyscall:
			r.at, d = readCopy, r.sys
		case readCopy, readBlocked:
			var wake *sim.Cond
			if r.tcp != nil && !r.tcp.Readable() {
				wake = r.tcp.readable
			} else if r.tcp == nil && !r.q.Readable() {
				wake = r.q.readable
			}
			if wake != nil {
				r.at = readBlocked
				return 0, 0, wake
			}
			if r.at == readBlocked {
				if r.at = readCopy; r.cat == sim.Syscall {
					c, d = sim.Kernel, r.cl.Costs.KernelWakeup
				}
				break
			}
			if r.tcp != nil {
				r.n = r.tcp.take(r.buf)
			} else {
				r.d = r.q.take(r.n)
				r.n = len(r.d.Data)
			}
			r.at, d = readDone, sim.Duration(r.n)*r.cl.Costs.CopyPerByte
		default:
			return 0, 0, nil
		}
		if d > 0 {
			return c, d, nil
		}
	}
}

// record is host h's read record holding r, or r's own while another read
// holds the host's: the kernel may run a read's steps after the call that
// started it returned. With one reader per host, a read allocates nothing.
func (cl *Cluster) record(h int, r SockRead) *SockRead {
	rec := &cl.reads[h]
	if rec.cl != nil {
		rec = new(SockRead)
	}
	*rec = r
	return rec
}

// read runs r in p to its end, gives its record back and returns it as its
// copy left it.
func (r *SockRead) read(p *sim.Proc) SockRead {
	sim.RunSteps(p, r)
	v := *r
	r.Done()
	return v
}
