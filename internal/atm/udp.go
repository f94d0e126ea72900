package atm

import (
	"fmt"
	"sync/atomic"

	"repro/internal/sim"
)

// Datagram is a received UDP (or AAL4) datagram. Data is a read-only view of
// the sender's frame, not a copy: a frame handed to a medium is immutable (it
// may be duplicated or retransmitted), so every holder only reads it. Frame
// is the UDP frame Data views, one hold of which the datagram carries until
// its reader releases it; nil when the bytes are GC-owned (U-Net, AAL4).
type Datagram struct {
	Src   int
	Data  []byte
	Frame *Frame
}

// Frame is one UDP datagram buffer, recycled through its socket's lists
// once the last of its holders lets go (DESIGN §9): the sending RUDP until
// the frame is acked, each transmission until its udpXmit finishes, and
// each queued Datagram until its reader releases it. Only the hold count is
// shared across lanes; the bytes are written by whoever drew the frame,
// before anyone else holds it.
type Frame struct {
	B     []byte
	holds atomic.Int32
}

// smallFrame is the largest frame the control list serves: RUDP acks and
// the transport's header-only frames.
const smallFrame = 64

// dataFramesIdle bounds the idle data frames a socket keeps. A frame's last
// release is usually its sender's ack, so it is back where the next one is
// drawn: one recycles a stream's payload, and more only grows the live heap.
const dataFramesIdle = 1

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

// take is a read's copy: the next datagram, cut to max bytes.
func (q *recvQueue) take(max int) Datagram {
	d := q.dq.Pop()
	d.Data = d.Data[:min(len(d.Data), max)]
	return d
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
	idle  sim.FreeList[udpXmit] // transmission records (see udpXmit)
	small sim.FreeList[Frame]   // idle frames of up to smallFrame bytes
	data  sim.FreeList[Frame]   // idle larger frames, at most dataFramesIdle

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
	s.data.Max = dataFramesIdle
	cl.udpPorts[k][h] = s
	return s
}

// frame draws an n-byte frame, held once by the caller, from the socket's
// lists. Its bytes are not zeroed: the caller writes all n.
func (u *UDP) frame(n int) *Frame {
	l := &u.data
	if n <= smallFrame {
		l = &u.small
	}
	f := l.Get()
	if f == nil {
		f = new(Frame)
	}
	if cap(f.B) < n {
		f.B = make([]byte, n, max(n, smallFrame))
	}
	f.B = f.B[:n]
	f.holds.Store(1)
	return f
}

// release drops one hold on f (nil: a GC-owned datagram). The last returns
// it to u's lists, u being the socket whose lane is running.
func (u *UDP) release(f *Frame) {
	if f == nil || f.holds.Add(-1) != 0 {
		return
	}
	if cap(f.B) <= smallFrame {
		u.small.Put(f)
		return
	}
	// A full data list keeps the larger frame, so what is recycled does not
	// depend on the order a batch is released in (applyAck walks a map).
	if u.data.Len() == dataFramesIdle {
		if g := u.data.Get(); cap(g.B) > cap(f.B) {
			f = g
		}
	}
	u.data.Put(f)
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
	f := u.frame(len(data))
	copy(f.B, data)
	u.send(p, dst, f)
	u.release(f)
}

// send is SendTo for a frame the caller holds: the frame itself travels
// and is queued at the peer, under holds of its own. The simulated kernel
// still charges its copy and checksum; the host just skips them.
func (u *UDP) send(p *sim.Proc, dst int, f *Frame) {
	if len(f.B) > u.MaxDatagram() {
		panic(fmt.Sprintf("udp: datagram of %d bytes exceeds max %d", len(f.B), u.MaxDatagram()))
	}
	p.Spend(sim.Syscall, u.sendCharge(len(f.B)))
	u.transmit(dst, f)
}

// sendCharge is what sending an n-byte datagram charges its writer.
func (u *UDP) sendCharge(n int) sim.Duration {
	k := u.cl.Costs
	return k.SyscallWrite + sim.Duration(n)*(k.CopyPerByte+k.ChecksumPerByte) + k.UDPPerPacket
}

// transmit fragments and delivers one datagram toward dst's socket,
// reassembling at the far side; the whole datagram is lost if any fragment
// is. The transmission holds f until its record finishes. Wire and kernel
// delivery only, no user-side charges, and safe from event context
// (timer-driven retransmission calls it directly).
func (u *UDP) transmit(dst int, f *Frame) {
	peer := u.cl.udpPorts[u.med.Kind()][dst]
	if peer == nil {
		panic(fmt.Sprintf("udp: no socket bound on host %d/%v", dst, u.med.Kind()))
	}
	x := u.idle.Get()
	if x == nil {
		x = &udpXmit{}
		x.arrive, x.land = x.fragment, x.deliver
	}
	f.holds.Add(1)
	x.peer, x.src, x.frame = peer, u.host, f
	size := len(f.B)
	frag := u.med.MTU() - UDPIPHeader
	x.frags = max(1, (size+frag-1)/frag)
	for i := 0; i < x.frags; i++ {
		fragLen := min(size, (i+1)*frag) - i*frag
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
// many arrivals have run and no landing is pending, releasing its hold on
// the frame. Like atm.hop it is drawn from the sending socket's pool and
// returned to the receiving socket's, on whose lane it finishes.
type udpXmit struct {
	peer    *UDP
	src     int
	frame   *Frame
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
		x.peer.cl.Ledgers[x.peer.host].Record(sim.Kernel, x.peer.cl.Costs.UDPPerPacket)
		x.peer.cl.SchedOf(x.peer.host).After(x.peer.cl.Costs.UDPPerPacket, x.land)
		return
	}
	x.finish(x.peer)
}

// deliver queues the reassembled datagram, under a hold of its own, at the
// peer socket.
func (x *udpXmit) deliver() {
	x.landing--
	peer, f := x.peer, x.frame
	f.holds.Add(1)
	d := Datagram{Src: x.src, Data: f.B, Frame: f}
	x.finish(peer)
	peer.land(d)
}

// finish returns the record to the pool of u, the socket whose lane is
// running, once every copy has arrived and landed, and releases the
// transmission's hold on the frame there.
func (x *udpXmit) finish(u *UDP) {
	if x.arrived < x.copies || x.landing > 0 {
		return
	}
	u.release(x.frame)
	*x = udpXmit{arrive: x.arrive, land: x.land}
	u.idle.Put(x)
}

// RecvFrom blocks until a datagram arrives, copies it into buf (truncating
// silently like the BSD API), and reports the byte count and source host.
func (u *UDP) RecvFrom(p *sim.Proc, buf []byte) (int, int) {
	d := u.recv(p, len(buf))
	n := copy(buf, d.Data)
	u.release(d.Frame)
	return n, d.Src
}

// recv is RecvFrom without the host copy: it charges the reader exactly
// what a read into a max-byte buffer costs and returns a read-only view of
// the first max bytes of the datagram, whose hold the caller releases.
func (u *UDP) recv(p *sim.Proc, max int) Datagram {
	return u.readStep(max).read(p).d
}

// readStep is a read of the next datagram's first max bytes, as steps.
func (u *UDP) readStep(max int) *SockRead {
	r := u.cl.sysRead(u.med.Kind())
	r.q, r.n = &u.recvQueue, max
	return u.cl.record(u.host, r)
}
