package atm

import (
	"fmt"

	"repro/internal/sim"
)

// AAL4 is a Fore API datagram socket over ATM adaptation layer 3/4 (the
// paper treats AAL3 and AAL4 identically). It bypasses IP and UDP, but the
// Fore API sits on STREAMS, whose per-packet cost is what makes Figure 4's
// AAL4 curve land on top of TCP and UDP instead of far below them.
type AAL4 struct {
	cl   *Cluster
	host int
	recvQueue
}

// AAL4Socket binds (or returns) the Fore API socket for host h.
func (cl *Cluster) AAL4Socket(h int) *AAL4 {
	if cl.aal4 == nil {
		cl.aal4 = make(map[int]*AAL4)
	}
	if s, ok := cl.aal4[h]; ok {
		return s
	}
	s := &AAL4{cl: cl, host: h, recvQueue: recvQueue{readable: sim.NewCond(cl.SchedOf(h))}}
	cl.aal4[h] = s
	return s
}

// MaxPDU is the largest AAL3/4 CPCS PDU the API accepts.
const MaxPDU = 64 * 1024

// SendTo transmits one AAL3/4 PDU to host dst.
func (a *AAL4) SendTo(p *sim.Proc, dst int, data []byte) {
	k := a.cl.Costs
	if len(data) > MaxPDU {
		panic(fmt.Sprintf("aal4: PDU of %d bytes exceeds max %d", len(data), MaxPDU))
	}
	p.Spend(sim.Syscall, k.SyscallWrite)
	p.Spend(sim.Syscall, sim.Duration(len(data))*k.CopyPerByte)
	p.Spend(sim.Kernel, k.AAL4PerPacket)

	peer := a.cl.AAL4Socket(dst)
	payload := make([]byte, len(data))
	copy(payload, data)
	src := a.host
	a.cl.Medium(OverATM).Deliver(a.host, dst, len(data), DeliverOpts{AAL34: true, Droppable: true}, func() {
		a.cl.SchedOf(dst).After(k.AAL4PerPacket, func() { peer.land(Datagram{Src: src, Data: payload}) })
	})
}

// RecvFrom blocks for the next PDU.
func (a *AAL4) RecvFrom(p *sim.Proc, buf []byte) (int, int) {
	r := a.cl.sysRead(OverATM)
	r.q, r.n = &a.recvQueue, len(buf)
	d := a.cl.record(a.host, r).read(p).d
	return copy(buf, d.Data), d.Src
}
