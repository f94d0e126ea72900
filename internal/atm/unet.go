package atm

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
)

// UNet is a user-level network endpoint over the ATM switch, after
// von Eicken et al.'s U-Net (SOSP'95) — the future-work direction the
// paper's related-work section points at: "a DMA mechanism such as this
// could be used in conjunction with the Meiko implementation for a high
// performance ATM implementation."
//
// The kernel is out of the data path: sends are a user-space doorbell
// write into a pinned transmit queue the i960 drains, and receives are
// polled from a user-mapped receive queue — no syscalls, no IP/transport
// processing, no STREAMS driver. What remains is the NIC and the wire,
// which is why U-Net cut the ~1 ms kernel round trips of Figure 4 to tens
// of microseconds.
type UNet struct {
	cl   *Cluster
	host int
	recvQueue
}

// U-Net cost model (calibrated to the SOSP'95 measurements: ~65 µs
// round trip for small messages on a 140 Mbit/s SBA-200).
const (
	// UNetDoorbell is the user-space send cost: compose the descriptor and
	// ring the doorbell.
	UNetDoorbell = 3000 // ns
	// UNetPoll is the user-space receive cost: check and consume a receive
	// queue entry.
	UNetPoll = 3000 // ns
	// UNetSARPerPacket is the on-card segmentation/reassembly cost with
	// U-Net's streamlined firmware (lower than the stock i960 path).
	UNetSARPerPacket = 8000 // ns
)

// UNetSocket binds (or returns) the user-level endpoint for host h.
func (cl *Cluster) UNetSocket(h int) *UNet {
	if cl.unet == nil {
		cl.unet = make(map[int]*UNet)
	}
	if s, ok := cl.unet[h]; ok {
		return s
	}
	s := &UNet{cl: cl, host: h, recvQueue: recvQueue{readable: sim.NewCond(cl.SchedOf(h))}}
	cl.unet[h] = s
	return s
}

// MaxPDU bounds one U-Net message (one pinned buffer).
const UNetMaxPDU = 64 * 1024

// SendTo transmits one message to host dst. The per-message cost is the
// doorbell write plus the user-to-NIC copy at memory bandwidth; the
// switch's dedicated flow-controlled links deliver reliably and in order.
// The caller keeps data: the endpoint sends a snapshot.
func (u *UNet) SendTo(p *sim.Proc, dst int, data []byte) {
	u.Send(p, dst, bytes.Clone(data))
}

// Send is SendTo for a buffer the caller gives up: data itself is queued at
// the peer, so nobody may write to it again. Charges are SendTo's.
func (u *UNet) Send(p *sim.Proc, dst int, data []byte) {
	k := u.cl.Costs
	if len(data) > UNetMaxPDU {
		panic(fmt.Sprintf("unet: PDU of %d bytes exceeds max %d", len(data), UNetMaxPDU))
	}
	p.Spend(sim.Sync, UNetDoorbell+sim.Duration(len(data))*k.CopyPerByte)

	peer := u.cl.UNetSocket(dst)
	src := u.host
	// U-Net bypasses the Medium interface (no kernel stack), but not the
	// physical network: partitions and added latency from the fault layer
	// still apply. Loss/duplication/reordering do not — the dedicated
	// switch links are flow controlled, lossless and FIFO by construction.
	drop, extra := u.cl.atmInj.admit(src, dst)
	if drop {
		return
	}
	wire := sim.Duration(AAL5WireBytes(len(data))) * k.ATMPerByte
	// The fabric's packet path with the streamlined firmware's SAR cost on
	// both cards and no driver: the packet lands straight in the user-mapped
	// receive queue.
	land := func() { peer.land(Datagram{Src: src, Data: data}) }
	if extra == 0 {
		u.cl.Atm.send(src, dst, wire, UNetSARPerPacket, UNetSARPerPacket, land)
		return
	}
	// The hold timer lives on the source lane, as in Injector.Deliver.
	u.cl.SchedOf(src).After(extra, func() {
		u.cl.Atm.send(src, dst, wire, UNetSARPerPacket, UNetSARPerPacket, land)
	})
}

// RecvFrom blocks polling the receive queue for the next message and
// copies it into buf, truncating silently.
func (u *UNet) RecvFrom(p *sim.Proc, buf []byte) (int, int) {
	d := u.Recv(p, len(buf))
	return copy(buf, d.Data), d.Src
}

// Recv is RecvFrom without the host copy: same charges as a receive into a
// max-byte buffer, returning a read-only view of the first max bytes.
func (u *UNet) Recv(p *sim.Proc, max int) Datagram {
	k := u.cl.Costs
	p.Spend(sim.Sync, UNetPoll)
	for !u.Readable() {
		u.readable.Wait(p)
	}
	d := u.dq.Pop()
	d.Data = d.Data[:min(len(d.Data), max)]
	p.Spend(sim.Sync, sim.Duration(len(d.Data))*k.CopyPerByte)
	return d
}
