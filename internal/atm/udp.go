package atm

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
)

// Datagram is a received UDP (or AAL4) datagram. Data is the sender's
// frame itself, not a copy: a frame handed to a medium is immutable (it may
// be duplicated or retransmitted), so every holder only reads it.
type Datagram struct {
	Src  int
	Data []byte
}

// popDgram removes and returns the head of q, zeroing the vacated slot so
// the backing array does not keep the consumed frame reachable.
func popDgram(q *[]Datagram) Datagram {
	d := (*q)[0]
	(*q)[0] = Datagram{}
	*q = (*q)[1:]
	return d
}

// recvQueue is the receive side every datagram socket (UDP, U-Net, AAL4)
// embeds: arrivals queue in order, wake blocked readers, then run the
// arrival watchers.
type recvQueue struct {
	dq       []Datagram
	readable *sim.Cond
	watchers []func()
}

// land queues one arrival and notifies. Event context, on the socket's lane.
func (q *recvQueue) land(d Datagram) {
	q.dq = append(q.dq, d)
	q.readable.Broadcast()
	for _, fn := range q.watchers {
		fn()
	}
}

// await blocks p until a datagram is queued and reports whether it had to
// block.
func (q *recvQueue) await(p *sim.Proc) (blocked bool) {
	for len(q.dq) == 0 {
		q.readable.Wait(p)
		blocked = true
	}
	return blocked
}

// Readable reports whether RecvFrom would return without blocking.
func (q *recvQueue) Readable() bool { return len(q.dq) > 0 }

// OnReadable registers an arrival callback (event context).
func (q *recvQueue) OnReadable(fn func()) { q.watchers = append(q.watchers, fn) }

// UDP is a bound datagram socket on one host over one medium. One socket
// per (host, medium) carries all of the model's UDP traffic — addressing
// is by host id, matching the paper's static process-per-host placement.
type UDP struct {
	cl   *Cluster
	host int
	med  Medium
	recvQueue

	// Drops counts datagrams lost to loss injection on send (whole
	// datagram lost when any fragment is).
	Drops int
}

// UDPSocket binds (or returns the existing) datagram socket for host h on
// medium k.
func (cl *Cluster) UDPSocket(h int, k MediumKind) *UDP {
	if s, ok := cl.udpPorts[k][h]; ok {
		return s
	}
	s := &UDP{cl: cl, host: h, med: cl.Medium(k), recvQueue: recvQueue{readable: sim.NewCond(cl.SchedOf(h))}}
	cl.udpPorts[k][h] = s
	return s
}

// MaxDatagram reports the largest datagram the socket accepts (bounded by
// IP fragmentation across the medium MTU; we cap at 8 fragments).
func (u *UDP) MaxDatagram() int { return 8*(u.med.MTU()-UDPIPHeader) - UDPIPHeader }

// SendTo transmits data as one datagram to host dst, charging syscall,
// copy, checksum and protocol costs, fragmenting across the MTU when
// needed. Datagrams are unreliable when the medium injects loss; they are
// never reordered between a host pair (both media are FIFO), matching what
// the paper's reliability layer assumes. The caller keeps data (BSD
// semantics): the socket sends a snapshot.
func (u *UDP) SendTo(p *sim.Proc, dst int, data []byte) {
	u.send(p, dst, bytes.Clone(data))
}

// send is SendTo for a frame the caller gives up: frame itself travels and
// is queued at the peer. The simulated kernel still charges its copy and
// checksum; the host just skips them.
func (u *UDP) send(p *sim.Proc, dst int, frame []byte) {
	k := u.cl.Costs
	if len(frame) > u.MaxDatagram() {
		panic(fmt.Sprintf("udp: datagram of %d bytes exceeds max %d", len(frame), u.MaxDatagram()))
	}
	p.Advance(k.SyscallWrite + sim.Duration(len(frame))*(k.CopyPerByte+k.ChecksumPerByte) + k.UDPPerPacket)
	u.transmit(dst, frame)
}

// transmit fragments and delivers one owned datagram toward dst's socket,
// reassembling at the far side; the whole datagram is lost if any fragment
// is. Wire and kernel delivery only, no user-side charges, and safe from
// event context (timer-driven retransmission calls it directly).
func (u *UDP) transmit(dst int, data []byte) {
	k := u.cl.Costs
	peer := u.cl.udpPorts[u.med.Kind()][dst]
	if peer == nil {
		panic(fmt.Sprintf("udp: no socket bound on host %d/%v", dst, u.med.Kind()))
	}
	src := u.host

	frag := u.med.MTU() - UDPIPHeader
	nfrags := (len(data) + frag - 1) / frag
	if nfrags == 0 {
		nfrags = 1
	}
	arrived := 0
	lost := false
	for i := 0; i < nfrags; i++ {
		end := (i + 1) * frag
		if end > len(data) {
			end = len(data)
		}
		fragLen := end - i*frag
		if fragLen < 0 {
			fragLen = 0
		}
		ok := u.med.Deliver(u.host, dst, fragLen+UDPIPHeader, DeliverOpts{Droppable: true}, func() {
			arrived++
			// Each complete fragment set yields a datagram, so a duplicated
			// wire frame surfaces as a duplicate datagram (as real IP
			// reassembly would) instead of being silently absorbed.
			if arrived%nfrags == 0 && !lost {
				// Reassembly complete: kernel input processing, then queue.
				// The medium ran us on dst's lane, so the timer and the
				// socket state stay there.
				u.cl.SchedOf(dst).After(k.UDPPerPacket, func() { peer.land(Datagram{Src: src, Data: data}) })
			}
		})
		if !ok {
			lost = true
		}
	}
	if lost {
		u.Drops++
	}
}

// RecvFrom blocks until a datagram arrives, copies it into buf (truncating
// silently like the BSD API), and reports the byte count and source host.
func (u *UDP) RecvFrom(p *sim.Proc, buf []byte) (int, int) {
	d := u.recv(p, len(buf))
	return copy(buf, d.Data), d.Src
}

// recv is RecvFrom without the host copy: it charges the reader exactly
// what a read into a max-byte buffer costs and returns a read-only view of
// the first max bytes of the datagram.
func (u *UDP) recv(p *sim.Proc, max int) Datagram {
	k := u.cl.Costs
	p.Advance(k.SyscallRead + u.cl.readExtra(u.med.Kind()))
	if u.await(p) {
		p.Advance(k.KernelWakeup)
	}
	d := popDgram(&u.dq)
	d.Data = d.Data[:min(len(d.Data), max)]
	p.Advance(sim.Duration(len(d.Data)) * k.CopyPerByte)
	return d
}
