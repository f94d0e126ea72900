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

// recvQueue is the receive side every datagram socket (UDP, U-Net, AAL4)
// embeds: arrivals queue in order, wake blocked readers, then run the
// arrival watchers.
type recvQueue struct {
	dq       sim.Queue[Datagram]
	readable *sim.Cond
	watchers []func()
}

// land queues one arrival and notifies. Event context, on the socket's lane.
func (q *recvQueue) land(d Datagram) {
	q.dq.Push(d)
	q.readable.Broadcast()
	for _, fn := range q.watchers {
		fn()
	}
}

// await blocks p until a datagram is queued and reports whether it had to
// block.
func (q *recvQueue) await(p *sim.Proc) (blocked bool) {
	for q.dq.Len() == 0 {
		q.readable.Wait(p)
		blocked = true
	}
	return blocked
}

// Readable reports whether RecvFrom would return without blocking.
func (q *recvQueue) Readable() bool { return q.dq.Len() > 0 }

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
	idle sim.FreeList[udpXmit] // transmission records (see udpXmit)

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
	peer := u.cl.udpPorts[u.med.Kind()][dst]
	if peer == nil {
		panic(fmt.Sprintf("udp: no socket bound on host %d/%v", dst, u.med.Kind()))
	}
	x := u.idle.Get()
	if x == nil {
		x = &udpXmit{}
		x.arrive, x.land = x.fragment, x.deliver
	}
	x.peer, x.src, x.data = peer, u.host, data
	frag := u.med.MTU() - UDPIPHeader
	x.frags = max(1, (len(data)+frag-1)/frag)
	for i := 0; i < x.frags; i++ {
		fragLen := min(len(data), (i+1)*frag) - i*frag
		n := u.med.Deliver(u.host, dst, fragLen+UDPIPHeader, DeliverOpts{Droppable: true}, x.arrive)
		x.lost = x.lost || n == 0
		x.copies += n
	}
	if x.lost {
		u.Drops++
	}
	if x.copies == 0 {
		x.finish(u) // nothing will arrive: the record never left this lane
	}
}

// udpXmit is one datagram transmission: the state its fragments' arrival
// events and its landing carry. Both are funcs bound to the record once, so
// a datagram crosses the wire without allocating. Fragments are droppable,
// so the fault layer may drop or duplicate any of them; transmit sums the
// copy counts Medium.Deliver returns, and the record is finished once that
// many arrivals have run and no landing is pending. Like atm.hop it is drawn
// from the sending socket's pool and returned to the receiving socket's, on
// whose lane it finishes.
type udpXmit struct {
	peer    *UDP
	src     int
	data    []byte
	frags   int    // fragments per datagram
	copies  int    // fragment copies the medium will deliver
	arrived int    // fragment copies delivered so far
	landing int    // reassembled datagrams in kernel input processing
	lost    bool   // a fragment was dropped, so nothing reassembles
	arrive  func() // x.fragment, bound once
	land    func() // x.deliver, bound once
}

// fragment runs as each fragment copy reaches the peer, on its lane. Each
// complete fragment set yields a datagram, so a duplicated wire frame
// surfaces as a duplicate datagram (as real IP reassembly would) instead of
// being silently absorbed.
func (x *udpXmit) fragment() {
	x.arrived++
	if x.arrived%x.frags == 0 && !x.lost {
		// Reassembly complete: kernel input processing, then queue.
		x.landing++
		x.peer.cl.SchedOf(x.peer.host).After(x.peer.cl.Costs.UDPPerPacket, x.land)
		return
	}
	x.finish(x.peer)
}

// deliver queues the reassembled datagram at the peer socket.
func (x *udpXmit) deliver() {
	x.landing--
	peer, d := x.peer, Datagram{Src: x.src, Data: x.data}
	x.finish(peer)
	peer.land(d)
}

// finish returns the record to the pool of u, the socket whose lane is
// running, once every copy has arrived and landed.
func (x *udpXmit) finish(u *UDP) {
	if x.arrived < x.copies || x.landing > 0 {
		return
	}
	*x = udpXmit{arrive: x.arrive, land: x.land}
	u.idle.Put(x)
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
	d := u.dq.Pop()
	d.Data = d.Data[:min(len(d.Data), max)]
	p.Advance(sim.Duration(len(d.Data)) * k.CopyPerByte)
	return d
}
