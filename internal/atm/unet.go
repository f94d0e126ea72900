package atm

import (
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
	rd *SockRead // RecvStep's read, until TryRecv
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

// Send transmits one message to host dst. The per-message cost is the
// doorbell write plus the user-to-NIC copy at memory bandwidth; the
// switch's dedicated flow-controlled links deliver reliably and in order.
// The caller gives data up: it is queued at the peer, so nobody may write
// to it again.
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

// readStep is a receive as a read: the queue poll, then the copy of the
// next message's first max bytes, both user-level (Sync); a poll that
// finds nothing waits for an arrival, with no kernel wakeup to pay.
func (u *UNet) readStep(max int) *SockRead {
	return u.cl.record(u.host, SockRead{cl: u.cl, cat: sim.Sync, sys: UNetPoll, q: &u.recvQueue, n: max})
}

// RecvStep is Recv's steps for a reader that never blocks: with nothing
// queued, nothing at once; else the read's steps, and TryRecv returns the
// message once they are done.
func (u *UNet) RecvStep() (sim.Cat, sim.Duration, *sim.Cond) {
	if u.rd == nil {
		if !u.Readable() {
			return 0, 0, nil
		}
		u.rd = u.readStep(UNetMaxPDU)
	}
	return u.rd.Step()
}

// TryRecv returns the message RecvStep read, if any. The link never fails.
func (u *UNet) TryRecv() (d Datagram, ok bool, err error) {
	if ok = u.rd != nil; ok {
		d = u.rd.d
		u.rd.Done()
		u.rd = nil
	}
	return d, ok, nil
}
