package atm

import (
	"time"

	"repro/internal/sim"
)

// DefaultTCPBuffer is the kernel socket buffer size: the receive window.
const DefaultTCPBuffer = 64 * 1024

// tcpAckDelay is the classic 4.2BSD delayed-ack timer.
const tcpAckDelay = 200 * time.Millisecond

// TCP is one end of an established TCP connection (connections are static
// in the paper's setup, so connection establishment is out of scope). The
// model implements what the paper's MPI rides on: a reliable ordered byte
// stream with segmentation at the MSS, kernel protocol processing per
// segment, user/kernel copies, and receiver-buffer flow control. Loss
// recovery is not modeled — both testbed media are effectively lossless
// and the paper treats TCP as a reliable stream (UDP reliability is
// modeled separately in RUDP).
type TCP struct {
	cl   *Cluster
	host int
	med  Medium
	peer *TCP

	rq        []byte // kernel receive buffer; rq[rqHead:] is delivered, unread
	rqHead    int    // bytes of rq already read (rewound when rq drains)
	readable  *sim.Cond
	watchers  []func() // arrival callbacks (event context)
	wwatchers []func() // window-opened callbacks (event context)

	sndCredit int // peer receive-buffer space we may consume
	sndWait   *sim.Cond

	// Nagle leaves the stack's two small-packet defaults on, the pair a
	// socket without TCP_NODELAY gets. RFC 896 coalescing: while data is
	// unacknowledged, sub-MSS writes are held and merged. 4.2BSD delayed
	// acks: window updates are withheld until two segments' worth is owed
	// or tcpAckDelay passes, and piggyback on reverse data at once. Together
	// they stall a one-way small-message stream by tcpAckDelay per exchange.
	// Off by default — the paper's latency work presupposes TCP_NODELAY, and
	// the MPI device writes each protocol message as a single frame precisely
	// to keep small messages off this path.
	Nagle bool

	unacked  int    // bytes sent, not yet acknowledged
	nagleQ   []byte // coalesced sub-MSS data awaiting an ack
	owedAck  int    // window bytes not yet returned to the peer
	dropped  bool   // fenced by Drop: the peer is dead, writes are discarded
	ackTimer bool   // delayed-ack timer armed

	idle sim.FreeList[tcpFrame] // wire-frame record pool (see tcpFrame)

	// Stats for tests and instrumentation.
	SegmentsOut int
	BytesIn     int
}

// TCPPair establishes a connection between hosts h0 and h1 over medium k,
// returning the two endpoints.
func (cl *Cluster) TCPPair(h0, h1 int, k MediumKind) (*TCP, *TCP) {
	m := cl.Medium(k)
	s0, s1 := cl.SchedOf(h0), cl.SchedOf(h1)
	pool := sim.FreeList[tcpFrame]{Max: tcpFramePoolCap}
	a := &TCP{cl: cl, host: h0, med: m, readable: sim.NewCond(s0), sndWait: sim.NewCond(s0), sndCredit: DefaultTCPBuffer, idle: pool}
	b := &TCP{cl: cl, host: h1, med: m, readable: sim.NewCond(s1), sndWait: sim.NewCond(s1), sndCredit: DefaultTCPBuffer, idle: pool}
	a.peer, b.peer = b, a
	return a, b
}

// MSS reports the maximum segment payload for the connection's medium.
func (c *TCP) MSS() int { return c.med.MTU() - TCPIPHeader }

// Write sends len(data) bytes down the stream, blocking (in virtual time)
// on the receiver's window. It charges the syscall, the user-to-kernel
// copy, checksumming, and per-segment protocol processing to p.
func (c *TCP) Write(p *sim.Proc, data []byte) { c.WriteInterleaved(p, data, nil) }

// Drop fences the connection against a dead peer: segments written from
// now on are discarded instead of transmitted (the corpse will never read
// them), send credit is pinned open (it will never return window updates
// either), and writers parked on window space are released. Without the
// fence a single dead peer would park every survivor that still owes it a
// frame on a window that can never reopen.
func (c *TCP) Drop() {
	c.dropped = true
	c.sndCredit = DefaultTCPBuffer
	c.sndWait.Broadcast()
	for _, fn := range c.wwatchers {
		fn()
	}
}

func (c *TCP) writeSegment(p *sim.Proc, seg []byte) {
	if c.dropped {
		return // fenced: the bytes would go to a dead peer
	}
	if c.Nagle && c.unacked > 0 && len(c.nagleQ)+len(seg) < c.MSS() {
		// Hold sub-MSS data while anything is in flight (RFC 896).
		c.nagleQ = append(c.nagleQ, seg...)
		return
	}
	if len(c.nagleQ) > 0 {
		seg = append(append([]byte{}, c.nagleQ...), seg...)
		c.nagleQ = nil
	}
	// A data transmission is an opportunity to piggyback any ack we owe.
	c.flushOwedAck()
	k := c.cl.Costs
	for c.sndCredit < len(seg) {
		c.sndWait.Wait(p)
	}
	if c.dropped {
		return // the peer died while we were parked on its window
	}
	c.sndCredit -= len(seg)
	c.unacked += len(seg)
	p.Spend(sim.Kernel, k.TCPPerSegment)
	c.transmitSegment(seg)
}

// transmitSegment snapshots seg (the writer reuses its buffer) and carries
// it to the peer's receive buffer. Event-context safe.
func (c *TCP) transmitSegment(seg []byte) {
	f := c.getFrame(frameSegment)
	f.data = append(f.data[:0], seg...)
	c.SegmentsOut++
	c.med.Deliver(c.host, c.peer.host, len(seg)+TCPIPHeader, DeliverOpts{}, f.step)
}

// tcpFrame is one wire frame in flight — a data segment or a window update
// — and the state its delivery events carry. Delivery is one func, step,
// bound to the record once; a segment's payload snapshot lives in the
// record's own buffer, which is reused with it. So a frame crosses the wire
// without allocating. Records are pooled per endpoint: drawn from the
// sender's pool and, because delivery runs on the peer's lane, returned to
// the peer's — every segment read is answered by a window update, so a
// connection's two pools stay balanced even when data flows one way, and a
// cap bounds them.
//
// A record runs once: TCP frames are not droppable, so Medium.Deliver
// always reports one copy (the fault layer may only hold or cut a frame).
type tcpFrame struct {
	from  *TCP
	stage uint8
	data  []byte // frameSegment: payload snapshot
	n     int    // frameUpdate: window bytes returned
	step  func() // f.run, bound once
}

// What run does next.
const (
	frameSegment = iota // segment reached the peer: kernel input processing
	frameLand           // processed: the bytes become readable
	frameUpdate         // window update reached the peer
)

// tcpFramePoolCap bounds an endpoint's idle records (a full window of
// maximum-size segments); returns beyond it fall to the garbage collector.
const tcpFramePoolCap = 8

func (c *TCP) getFrame(stage uint8) *tcpFrame {
	f := c.idle.Get()
	if f == nil {
		f = &tcpFrame{}
		f.step = f.run
	}
	f.from, f.stage = c, stage
	return f
}

// run executes the frame's next delivery step. The medium ran us on the
// peer's lane; everything here stays there.
func (f *tcpFrame) run() {
	r := f.from.peer
	switch f.stage {
	case frameSegment:
		f.stage = frameLand
		r.cl.Ledgers[r.host].Record(sim.Kernel, r.cl.Costs.TCPPerSegment)
		r.cl.SchedOf(r.host).After(r.cl.Costs.TCPPerSegment, f.step)
	case frameLand:
		if r.rqHead > 0 && len(r.rq)+len(f.data) > cap(r.rq) {
			// Reclaim the read prefix before growing, or a reader that
			// never quite catches up would grow rq without bound.
			r.rq = r.rq[:copy(r.rq, r.rq[r.rqHead:])]
			r.rqHead = 0
		}
		r.rq = append(r.rq, f.data...)
		r.BytesIn += len(f.data)
		r.idle.Put(f)
		r.readable.Broadcast()
		for _, fn := range r.watchers {
			fn()
		}
	case frameUpdate:
		n := f.n
		// Recycled first, so Nagle data the update releases reuses the record.
		r.idle.Put(f)
		r.sndCredit += n
		r.unacked -= n
		if r.unacked < 0 {
			r.unacked = 0
		}
		if r.Nagle && r.unacked == 0 && len(r.nagleQ) > 0 {
			// The ack releases coalesced data; transmission happens in
			// kernel context (timer/interrupt), like RUDP retransmits.
			r.kernelFlushNagle()
		}
		r.sndWait.Broadcast()
		for _, fn := range r.wwatchers {
			fn()
		}
	}
}

// WriteInterleaved is Write for callers that must keep draining their own
// inbound side while a large frame pushes against a closed window: whenever
// the next segment would block on window space, yield runs instead of
// parking here. yield should consume inbound data (freeing the peer to
// drain this frame) or park on a condition woken by both arrivals and
// window updates (see OnWritable). Two peers pushing window-exceeding
// frames at each other would both park forever in plain Write — the classic
// socket-MPI progress deadlock. Costs charged to p are identical to
// Write's; Write is WriteInterleaved with no yield.
func (c *TCP) WriteInterleaved(p *sim.Proc, data []byte, yield func()) {
	k := c.cl.Costs
	p.Spend(sim.Syscall, k.SyscallWrite+sim.Duration(len(data))*(k.CopyPerByte+k.ChecksumPerByte))
	mss := c.MSS()
	for off := 0; off < len(data); off += mss {
		end := min(off+mss, len(data))
		for yield != nil && c.sndCredit < end-off {
			yield()
		}
		c.writeSegment(p, data[off:end])
	}
	if len(data) == 0 {
		c.writeSegment(p, nil)
	}
}

// Read blocks until at least one byte is available, then transfers up to
// len(buf) bytes to the caller, charging the read syscall, the
// medium-dependent stack cost, and the kernel-to-user copy. It returns the
// byte count. Reading frees window space, which flows back to the sender
// as a window-update frame.
func (c *TCP) Read(p *sim.Proc, buf []byte) int {
	n := c.ReadStep(buf).read(p).n
	c.sendWindowUpdate(n)
	return n
}

// ReadStep is Read's steps, for a reader that drives them and, once they
// are Done, returns the bytes to the peer's window (Consumed).
func (c *TCP) ReadStep(buf []byte) *SockRead {
	r := c.cl.sysRead(c.med.Kind())
	r.tcp, r.buf = c, buf
	return c.cl.record(c.host, r)
}

// take copies up to len(buf) buffered bytes into buf and reports how many.
func (c *TCP) take(buf []byte) int {
	n := copy(buf, c.rq[c.rqHead:])
	if c.rqHead += n; c.rqHead == len(c.rq) {
		// Drained: rewind, so a steady stream keeps appending in place.
		c.rq, c.rqHead = c.rq[:0], 0
	}
	return n
}

// Consumed returns n bytes the reader has taken to the peer's window.
func (c *TCP) Consumed(n int) { c.sendWindowUpdate(n) }

// ReadFull fills buf completely, looping over Read.
func (c *TCP) ReadFull(p *sim.Proc, buf []byte) {
	for off := 0; off < len(buf); {
		off += c.Read(p, buf[off:])
	}
}

// sendWindowUpdate returns n bytes of window to the peer via a bare-header
// frame (the ack traffic of the model). With Nagle the update is withheld
// until two MSS of window is owed or the delayed-ack timer fires.
func (c *TCP) sendWindowUpdate(n int) {
	if n == 0 {
		return
	}
	if !c.Nagle {
		c.transmitAck(n)
		return
	}
	c.owedAck += n
	if c.owedAck >= 2*c.MSS() {
		c.flushOwedAck()
		return
	}
	if !c.ackTimer {
		c.ackTimer = true
		c.cl.SchedOf(c.host).After(tcpAckDelay, func() {
			c.ackTimer = false
			c.flushOwedAck()
		})
	}
}

// flushOwedAck transmits any withheld window update.
func (c *TCP) flushOwedAck() {
	if c.owedAck == 0 {
		return
	}
	n := c.owedAck
	c.owedAck = 0
	c.transmitAck(n)
}

// transmitAck carries an n-byte window update (and acknowledgement) to the
// peer, unblocking its window waiters and releasing Nagle-held data.
func (c *TCP) transmitAck(n int) {
	f := c.getFrame(frameUpdate)
	f.n = n
	c.med.Deliver(c.host, c.peer.host, TCPIPHeader, DeliverOpts{}, f.step)
}

// kernelFlushNagle transmits the coalesced queue from kernel context.
func (c *TCP) kernelFlushNagle() {
	seg := c.nagleQ
	c.nagleQ = nil
	if len(seg) > c.sndCredit {
		// Window closed: put it back; the next update retries.
		c.nagleQ = seg
		return
	}
	c.sndCredit -= len(seg)
	c.unacked += len(seg)
	c.transmitSegment(seg)
}

// Buffered reports how many received bytes are waiting in the kernel.
func (c *TCP) Buffered() int { return len(c.rq) - c.rqHead }

// Readable reports whether a Read would return without blocking.
func (c *TCP) Readable() bool { return c.Buffered() > 0 }

// OnReadable registers fn to run whenever new bytes become readable; used
// by pollers that watch many connections. fn runs in event context.
func (c *TCP) OnReadable(fn func()) {
	c.watchers = append(c.watchers, fn)
}

// OnWritable registers fn to run whenever a window update restores send
// space; a WriteInterleaved yield that parks on a shared condition needs
// this to relay the wakeup. fn runs in event context.
func (c *TCP) OnWritable(fn func()) {
	c.wwatchers = append(c.wwatchers, fn)
}
