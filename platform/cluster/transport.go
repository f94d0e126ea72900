package cluster

import (
	"math/bits"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/sim"
)

// The transport's counters. Table 1's rows count each header read here and
// record every read's span beside the clock under sim.Read*.
var ctrEager, ctrRndv = core.Counter("eager"), core.Counter("rndv")
var ctrReadType, ctrReadEnv = core.Counter("read-type"), core.Counter("read-env")

// ctrRetransmit counts the frames a rank's RUDP sent again (timer and fast
// retransmit); a loss-free wire should book none.
var ctrRetransmit = core.Counter("rudp.retransmit")

// headerBytes is the paper's 25-byte protocol header, shared with the
// other socket transports through internal/flow.
const headerBytes = flow.HeaderBytes

// transport implements core.Transport over the cluster's sockets.
type transport struct {
	eng  *core.Engine
	rank int
	size int
	kind string // "tcp" | "udp" | "unet"

	conns []*atm.TCP // TCP mesh (nil diagonal)
	ready readySet   // conns with buffered bytes, so a poll costs O(arrivals)
	dgram dgramLink  // UDP (reliable layer) or U-Net mode

	// pool recycles TCP frame scratch (Write copies into the kernel, so a
	// frame is recyclable as soon as the call returns) and TCP eager bounce
	// buffers (the engine's pool, so counters land in the rank's account).
	// Datagram frames never come from it: they are the link's, recycled by
	// hold count (dgramLink.Frame).
	pool *core.BufPool

	inbox core.Inbox        // parsed frames waiting for Poll
	rr    int               // round-robin parse start
	hdr   [headerBytes]byte // parseTCP's: a TCP read's buffer escapes
	parse tcpParse          // parseTCP's chain

	// Credit flow control, receiver side: freed reservation owed back to
	// each sender (the sender's side is the engine's send queue).
	owed *flow.Owed
}

func newTransport(eng *core.Engine, rank, size, eager, credit int, kind string) *transport {
	t := &transport{
		eng:   eng,
		rank:  rank,
		size:  size,
		kind:  kind,
		conns: make([]*atm.TCP, size),
		ready: make(readySet, (size+63)/64),
		// A quarter of the reservation owed triggers an explicit credit
		// return (one-sided traffic), keeping the pair deadlock-free.
		owed: flow.NewOwed(size, credit/4),
		pool: eng.Pool(),
	}
	// Eager messages charge header+payload bytes against the receiver's
	// reservation; rendezvous envelopes are credit-exempt but still queue
	// in issue order.
	eng.SetFlow(eager, core.NewSendQueue(size, credit, 0, eng.EagerBytes(headerBytes), eng.Acct()))
	return t
}

func (t *transport) attachConn(peer int, c *atm.TCP) {
	t.conns[peer] = c
	// An arrival marks the connection ready (frames are never empty, so it
	// always leaves bytes buffered); parseAvailable unmarks it once drained.
	c.OnReadable(func() {
		t.ready.set(peer)
		t.eng.Wake()
	})
	// Window updates must reach a writer parked in interleave (it parks on
	// the engine, since the wakeup it needs may arrive on any connection,
	// not just the one it is writing).
	c.OnWritable(t.eng.Wake)
}

// dgramLink abstracts a reliable, in-order datagram channel: the RUDP
// layer over UDP, or the U-Net user-level endpoint (whose dedicated
// flow-controlled switch links are lossless and ordered by construction).
// A datagram is one buffer that is held instead of copied: Frame draws it,
// SendFrame takes the caller's hold (Headroom bytes the link fills in, then
// the message), and TryRecv returns a read-only view of the sender's frame
// that stays valid until the reader passes it to Release. Discard drops, in
// event context, what reaches a closed rank. OnArrival's fn is told whether
// the arrival left anything to read.
type dgramLink interface {
	Headroom() int
	Frame(n int) *atm.Frame
	SendFrame(p *sim.Proc, dst int, f *atm.Frame) error
	TryRecv(p *sim.Proc) (d atm.Datagram, ok bool, err error)
	Release(d atm.Datagram)
	Discard()
	MaxDatagram() int
	OnArrival(fn func(readable bool))
}

// unetLink adapts the U-Net endpoint to dgramLink. Its frames are GC-owned:
// U-Net queues the bytes themselves at the peer and never gives them back.
type unetLink struct{ u *atm.UNet }

func (l unetLink) Headroom() int          { return 0 }
func (l unetLink) Frame(n int) *atm.Frame { return &atm.Frame{B: make([]byte, n)} }
func (l unetLink) Release(d atm.Datagram) {}

func (l unetLink) SendFrame(p *sim.Proc, dst int, f *atm.Frame) error {
	l.u.Send(p, dst, f.B)
	return nil
}

func (l unetLink) TryRecv(p *sim.Proc) (atm.Datagram, bool, error) {
	if !l.u.Readable() {
		return atm.Datagram{}, false, nil
	}
	return l.u.Recv(p, atm.UNetMaxPDU), true, nil
}

// Discard keeps the frames queued: no U-Net sender waits for an ack.
func (l unetLink) Discard()                {}
func (l unetLink) MaxDatagram() int        { return atm.UNetMaxPDU }
func (l unetLink) OnArrival(fn func(bool)) { l.u.OnReadable(func() { fn(true) }) }

// attachDgram wakes an open rank on an arrival it can read; a closed one's
// link discards. Pure acks leave nothing to read, so they only Nudge: a
// rank that Wait parked on a pending request sleeps on.
func (t *transport) attachDgram(d dgramLink) {
	t.dgram = d
	d.OnArrival(func(readable bool) {
		if t.eng.Closed() {
			d.Discard()
		} else if readable {
			t.eng.Wake()
		} else {
			t.eng.Nudge()
		}
	})
}

var _ core.Transport = (*transport)(nil)

// writeFrame ships one protocol message (header + optional payload),
// charging p the full kernel send path.
func (t *transport) writeFrame(p *sim.Proc, dst int, kind core.PacketKind, env core.Envelope, aux uint32, payload []byte) {
	if t.eng.PeerDead(dst) {
		// Fenced: retrying into a dead peer's black hole would escalate one
		// process failure into link death (RUDP retry exhaustion) or a
		// parked survivor (a TCP window that never reopens).
		return
	}
	if t.kind == "tcp" {
		frame := t.tcpFrame(dst, kind, env, aux, payload)
		t.conns[dst].Write(p, frame)
		t.pool.Put(frame)
		return
	}
	// Datagram modes: one datagram per message (oversized payloads are
	// chunked by the caller before reaching here), built once behind the
	// link's header room and handed over — the message's only copy of the
	// user buffer.
	h := t.dgram.Headroom()
	f := t.dgram.Frame(h + headerBytes + len(payload))
	flow.EncodeHeaderInto(f.B[h:], kind, t.owed.Take(dst), env, aux)
	copy(f.B[h+headerBytes:], payload)
	if err := t.dgram.SendFrame(p, dst, f); err != nil {
		t.fail(err)
	}
}

// tcpFrame builds one TCP frame in pooled scratch: the header, carrying the
// credit owed to dst, with the payload behind it. The caller puts it back.
func (t *transport) tcpFrame(dst int, kind core.PacketKind, env core.Envelope, aux uint32, payload []byte) []byte {
	frame := t.pool.Get(headerBytes + len(payload))
	flow.EncodeHeaderInto(frame, kind, t.owed.Take(dst), env, aux)
	copy(frame[headerBytes:], payload)
	return frame
}

// Stop is the engine's Kill reaching the wire: a dead process's reliable
// UDP abandons the frames it has outstanding instead of retransmitting
// them to survivors that will fence it and stop acking. TCP and U-Net
// never retransmit.
func (t *transport) Stop() {
	if r, ok := t.dgram.(*atm.RUDP); ok {
		r.Stop()
	}
}

// fail declares the transport dead: the error (typed ErrLinkDown unless the
// link already produced an MPI error) completes every pending request and
// fails all subsequent operations, so Wait callers see the failure instead
// of hanging on a link that will never deliver.
func (t *transport) fail(err error) {
	if _, ok := err.(*core.Error); !ok {
		err = core.Errorf(core.ErrLinkDown, "cluster/%s rank %d: %v", t.kind, t.rank, err)
	}
	t.eng.Fatal(err)
}

// Ship implements core.Transport: one frame. A credit return piggybacks
// on the next outgoing header; only when a quarter of the reservation is
// owed (one-sided traffic) does an explicit credit frame flush it, which
// keeps the pair deadlock-free.
func (t *transport) Ship(p *sim.Proc, dst int, pkt core.Packet) {
	switch pkt.Kind {
	case core.PktEager:
		t.eng.Acct().Add(ctrEager, 1)
	case core.PktRTS:
		t.eng.Acct().Add(ctrRndv, 1)
	case core.PktCredit:
		if !t.owed.Add(dst, pkt.Env.Count+headerBytes) {
			return
		}
		pkt.Env = core.Envelope{Source: t.rank}
	}
	t.writeFrame(p, dst, pkt.Kind, pkt.Env, 0, pkt.Data)
}

// Accept implements core.Transport: send the CTS naming the receive, which
// the payload's Data frames name in turn.
func (t *transport) Accept(p *sim.Proc, msg *core.InMsg, req *core.Request) {
	t.writeFrame(p, msg.Env.Source, core.PktCTS, msg.Env, uint32(req.ID), nil)
}

// SendPayload implements core.Transport: a CTS surfaced at the sender, so
// this process pushes the payload itself — the cluster has no co-processor
// to do it in the background, which is exactly the progress limitation the
// paper discusses for socket transports. The payload goes as Data frames
// naming the receive the CTS named, each carrying the message's envelope,
// its count the full size.
func (t *transport) SendPayload(p *sim.Proc, req *core.Request, pkt *core.Packet) {
	dst, name, data := req.Env.Dest, uint32(pkt.Landing), req.Buf
	if t.kind == "tcp" {
		// The frame may exceed the receiver's TCP window, and the peer may
		// be pushing an equally large frame at us at the same moment (the
		// symmetric exchanges every large collective performs). A plain
		// blocking write would park both sides on window space with neither
		// draining its inbound stream, so interleave: whenever the window
		// closes, parse whatever has arrived before parking.
		frame := t.tcpFrame(dst, core.PktData, req.Env, name, data)
		t.conns[dst].WriteInterleaved(p, frame, func() {
			if !t.parseAvailable(p) {
				t.eng.Park(p)
			}
		})
		t.pool.Put(frame)
		return
	}
	// Datagram modes: chunk to datagram size. A chunk's place in the
	// payload is its place in the source's in-order stream, and its length
	// the datagram's.
	maxChunk := t.dgram.MaxDatagram() - headerBytes
	for off := 0; off < len(data) || off == 0; off += maxChunk {
		t.writeFrame(p, dst, core.PktData, req.Env, name, data[off:min(off+maxChunk, len(data))])
	}
}

// PeerDown implements core.Transport: fence the wire toward a dead rank so
// nothing ever retries into its black hole (TCP discards, RUDP abandons
// retransmission); the engine already failed the doomed requests, dropped
// the sends queued toward it and swept its rendezvous tables.
func (t *transport) PeerDown(rank int) {
	if t.kind == "tcp" {
		if c := t.conns[rank]; c != nil {
			c.Drop()
		}
	} else if dp, ok := t.dgram.(interface{ DropPeer(int) }); ok {
		dp.DropPeer(rank)
		// A killed rank's reliable UDP sends nothing after its death (Stop),
		// so the rest of a payload it was sending never comes: the landing's
		// cursor, already let go of its receive, closes here.
		if n := t.eng.PayloadLeft(rank); n > 0 {
			t.eng.Landed(rank, n, &t.inbox)
		}
	}
}

// Poll implements core.Transport. A header's piggybacked credit goes to
// Engine.Credit as it is parsed; the sends it releases ship once Poll has
// returned (see Engine.pollOnce).
func (t *transport) Poll(p *sim.Proc) *core.Packet {
	if t.inbox.Len() == 0 {
		t.parseAvailable(p)
	}
	return t.inbox.Poll()
}

// parseAvailable consumes every complete message currently readable,
// reporting whether anything was processed.
func (t *transport) parseAvailable(p *sim.Proc) bool {
	any := false
	if t.kind != "tcp" {
		for t.parseDgram(p) {
			any = true
		}
		return any
	}
	// Passes over the ready connections, cyclic from rr, until one finds
	// nothing; rr advances once per pass, that last one included. Parse order
	// is model behaviour: parseTCP advances time, and a connection that
	// becomes readable meanwhile is served in this pass if the cursor has not
	// reached it — which "next ready at or after the cursor" preserves,
	// because after re-reads the set on every step.
	progress := true
	for progress {
		progress = false
		for off := t.ready.after(t.rr, 0, t.size); off < t.size; off = t.ready.after(t.rr, off+1, t.size) {
			j := (t.rr + off) % t.size
			conn := t.conns[j]
			t.parseTCP(p, j, conn)
			if !conn.Readable() {
				t.ready.clear(j)
			}
			progress, any = true, true
		}
		t.rr = (t.rr + 1) % t.size
	}
	return any
}

// readySet is one bit per peer.
type readySet []uint64

func (r readySet) set(i int)   { r[i>>6] |= 1 << (i & 63) }
func (r readySet) clear(i int) { r[i>>6] &^= 1 << (i & 63) }

// after reports the smallest cyclic offset o in [off, n) whose peer
// (start+o)%n is set, or n when there is none: the linear scan's next hit,
// found a word at a time.
func (r readySet) after(start, off, n int) int {
	if lo := start + off; lo < n {
		if i := r.next(lo, n); i < n {
			return i - start
		}
		off = n - start // nothing up to the top: go on from the wrap
	}
	// Offsets from n-start on are peers 0..start-1.
	if i := r.next(start+off-n, start); i < start {
		return i + n - start
	}
	return n
}

// next reports the lowest set index in [lo, hi), or hi.
func (r readySet) next(lo, hi int) int {
	for w := lo >> 6; lo < hi; w++ {
		if rest := r[w] >> (lo & 63); rest != 0 {
			return min(lo+bits.TrailingZeros64(rest), hi)
		}
		lo = (w + 1) << 6
	}
	return hi
}

// parseTCP consumes one message from conn, performing the paper's two
// header reads (message type, then credit+envelope) and any eager payload
// read as one chain (tcpParse). A Data frame's payload is readData's.
func (t *transport) parseTCP(p *sim.Proc, src int, conn *atm.TCP) {
	if t.eng.PayloadLeft(src) > 0 {
		// Resume the partially-read Data frame before touching headers:
		// everything readable on this stream is its remaining payload.
		t.readData(p, src, conn)
		return
	}
	r := &t.parse
	*r = tcpParse{t: t, src: src, conn: conn, buf: t.hdr[:1], t0: p.Now()}
	p.SpendThen(sim.Syscall, conn.ReadCharge(), r)
	for r.blocked {
		// A read's syscall found nothing buffered: block, as a socket read
		// does, then go on from its copy.
		r.blocked = false
		p.SpendThen(sim.Kernel, conn.Await(p), r)
	}
	if r.kind == core.PktData {
		t.readData(p, src, conn)
	}
}

// tcpParse is a frame's reads as a chain of charges, each read as
// atm.TCP.Read charges it: the syscall; at its wake, the copy of what is
// buffered; at the copy's wake, the window update, then another syscall
// for the rest until the read is full. A full read is booked (the Read*
// spans and counters) and the next begins at the same wake: the envelope
// after the type, an eager payload after the envelope. The kernel runs the
// chain in the rank's place at each charge's wake; the rank resumes once
// the frame is parsed, or when a syscall finds nothing buffered (blocked).
type tcpParse struct {
	t       *transport
	src     int
	conn    *atm.TCP
	buf     []byte   // the read in progress ...
	off     int      // ... how much of it is filled ...
	n       int      // ... by the copy whose wake comes next
	t0      sim.Time // when the read began
	stage   uint8    // which read: parseType, parseEnv or parsePayload
	copied  bool     // the next call is at a copy's wake, not a syscall's
	blocked bool
	kind    core.PacketKind // the header's, once read
	env     core.Envelope
}

// A frame's reads, in order.
const (
	parseType = iota
	parseEnv
	parsePayload
)

func (r *tcpParse) Relay() (sim.Cat, sim.Duration, sim.Step) {
	if !r.copied { // a syscall's wake
		if !r.conn.Readable() {
			r.blocked = true
			return 0, 0, sim.Decline
		}
		n, d := r.conn.Take(r.buf[r.off:])
		r.n, r.copied = n, true
		return sim.Syscall, d, sim.More
	}
	r.copied = false
	r.conn.Consumed(r.n)
	if r.off += r.n; r.off < len(r.buf) || r.next() {
		return sim.Syscall, r.conn.ReadCharge(), sim.More
	}
	return 0, 0, sim.Decline
}

// next books the read just filled and reports whether another follows it.
func (r *tcpParse) next() bool {
	t := r.t
	now := t.eng.Scheduler().Now()
	acct := t.eng.Acct()
	switch r.stage {
	case parseType:
		acct.Record(sim.ReadType, sim.Duration(now-r.t0))
		acct.Add(ctrReadType, 1)
		r.buf, r.stage = t.hdr[1:], parseEnv
	case parseEnv:
		acct.Record(sim.ReadEnv, sim.Duration(now-r.t0))
		acct.Add(ctrReadEnv, 1)
		kind, credit, env, aux := flow.DecodeHeader(t.hdr[:])
		t.eng.Credit(r.src, credit)
		r.kind, r.env = kind, env
		switch kind {
		case core.PktEager:
			r.buf, r.stage, r.t0 = t.pool.Get(env.Count), parsePayload, now
			if env.Count == 0 { // nothing to read
				return r.next()
			}
		case core.PktData:
			t.eng.DataFrame(r.src, env, int64(aux))
			return false
		default:
			t.surface(r.src, kind, env, aux)
			return false
		}
	default:
		acct.Record(sim.ReadData, sim.Duration(now-r.t0))
		t.inbox.Push(core.Packet{Kind: r.kind, Env: r.env, Data: r.buf, Pool: t.pool})
		return false
	}
	r.off, r.t0 = 0, now
	return true
}

// surface handles a frame that carries no payload, which is therefore the
// same on a stream and in a datagram: a protocol packet goes through the
// inbox, a credit frame nowhere.
func (t *transport) surface(src int, kind core.PacketKind, env core.Envelope, aux uint32) {
	switch kind {
	case core.PktRTS, core.PktRevoke:
		t.inbox.Push(core.Packet{Kind: kind, Env: env})
	case core.PktCTS:
		t.inbox.Push(core.Packet{Kind: kind, Env: env, ReqID: env.SendID, Landing: int64(aux)})
	case core.PktSyncAck:
		t.inbox.Push(core.Packet{Kind: kind, Env: env, ReqID: env.SendID})
	case core.PktCredit:
		// Credit already booked from the header; nothing to surface.
	default:
		t.eng.Errors = append(t.eng.Errors, core.Errorf(core.ErrInternal, "unknown packet kind %d from %d", kind, src))
	}
}

// readData lands however much of a rendezvous payload the kernel buffer
// holds, resuming on later polls until the frame completes. Reading only
// buffered bytes — never parking for more — is what keeps two peers
// exchanging window-exceeding payloads deadlock-free: each side alternates
// between pushing its own frame and draining the other's.
func (t *transport) readData(p *sim.Proc, src int, conn *atm.TCP) {
	acct := t.eng.Acct()
	for left := t.eng.PayloadLeft(src); left > 0; left = t.eng.PayloadLeft(src) {
		n := min(conn.Buffered(), left)
		if n == 0 {
			return // resume when the next segment arrives
		}
		t2 := p.Now()
		land := t.eng.Place(src, n)
		conn.ReadFull(p, land)
		if rest := n - len(land); rest > 0 {
			// Past what the landing holds: drain and discard.
			junk := t.pool.Get(rest)
			conn.ReadFull(p, junk)
			t.pool.Put(junk)
		}
		acct.Record(sim.ReadData, sim.Duration(p.Now()-t2))
		t.eng.Landed(src, n, &t.inbox)
	}
}

// parseDgram consumes one reliable datagram, reporting whether one was
// available. The frame is released once its bytes are copied out or
// parsed, except an eager payload's.
func (t *transport) parseDgram(p *sim.Proc) bool {
	d, ok, err := t.dgram.TryRecv(p)
	if err != nil {
		t.fail(err)
	}
	if !ok {
		return false
	}
	buf := d.Data // a view of the sender's frame: read, never write or pool
	if len(buf) < headerBytes {
		t.eng.Errors = append(t.eng.Errors, core.Errorf(core.ErrInternal, "short datagram (%d bytes)", len(buf)))
		t.dgram.Release(d)
		return true
	}
	kind, credit, env, aux := flow.DecodeHeader(buf[:headerBytes])
	t.eng.Credit(env.Source, credit)
	payload := buf[headerBytes:]

	switch kind {
	case core.PktEager:
		// GC-owned (Pool nil): the engine may keep the view on its
		// unexpected queue and will never recycle it, so the frame keeps
		// this datagram's hold for good.
		t.inbox.Push(core.Packet{Kind: kind, Env: env, Data: payload})
		return true
	case core.PktData:
		t.eng.DataFrame(env.Source, env, int64(aux))
		copy(t.eng.Place(env.Source, len(payload)), payload)
		t.eng.Landed(env.Source, len(payload), &t.inbox)
	default:
		t.surface(env.Source, kind, env, aux)
	}
	t.dgram.Release(d)
	return true
}
