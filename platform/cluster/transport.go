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

	// The parse (Step), whose frames wait in inbox for PollStep: off is a
	// pass's cursor, frame the message in hand; progress is set once this
	// pass parsed something, any once the parse did.
	inbox                  core.Inbox
	rr, off                int
	parsing, progress, any bool
	hdr                    [headerBytes]byte // frame's: a TCP read's buffer escapes
	frame                  tcpParse

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
	// always leaves bytes buffered); the parse (Step) unmarks it once drained.
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
// the message). A receive is RecvStep's steps (a sim.Stepper's), then
// TryRecv, which returns a read-only view of the sender's frame that stays
// valid until the reader passes it to Release. Discard drops, in event
// context, what reaches a closed rank. OnArrival's fn is told whether the
// arrival left anything to read.
type dgramLink interface {
	Headroom() int
	Frame(n int) *atm.Frame
	SendFrame(p *sim.Proc, dst int, f *atm.Frame) error
	RecvStep() (sim.Cat, sim.Duration, *sim.Cond)
	TryRecv() (d atm.Datagram, ok bool, err error)
	Release(d atm.Datagram)
	Discard()
	MaxDatagram() int
	OnArrival(fn func(readable bool))
}

// unetLink adapts the U-Net endpoint to dgramLink. Its frames are GC-owned:
// U-Net queues the bytes themselves at the peer and never gives them back.
type unetLink struct{ *atm.UNet }

func (l unetLink) Headroom() int          { return 0 }
func (l unetLink) Frame(n int) *atm.Frame { return &atm.Frame{B: make([]byte, n)} }
func (l unetLink) Release(d atm.Datagram) {}

func (l unetLink) SendFrame(p *sim.Proc, dst int, f *atm.Frame) error {
	l.Send(p, dst, f.B)
	return nil
}

// Discard keeps the frames queued: no U-Net sender waits for an ack.
func (l unetLink) Discard()                {}
func (l unetLink) MaxDatagram() int        { return atm.UNetMaxPDU }
func (l unetLink) OnArrival(fn func(bool)) { l.OnReadable(func() { fn(true) }) }

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
			t.begin()
			if sim.RunSteps(p, t); !t.any {
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

// PollStep implements core.Transport: the parse's next step, or once it
// is over, or with no parse needed, the packet at the inbox's head. A
// header's piggybacked credit goes to Engine.Credit as it is parsed; the
// engine ships the sends it releases before it polls again.
func (t *transport) PollStep() (sim.Cat, sim.Duration, *core.Packet, *sim.Cond) {
	if !t.parsing && t.inbox.Len() == 0 {
		t.begin()
	}
	if c, d, w := t.Step(); d > 0 || w != nil {
		return c, d, nil, w
	}
	return 0, 0, t.inbox.Poll(), nil
}

// begin starts a parse of every complete message currently readable.
func (t *transport) begin() {
	t.parsing, t.progress, t.any = true, false, false
	t.off = t.ready.after(t.rr, 0, t.size)
}

func (t *transport) Relay() (sim.Cat, sim.Duration, sim.Step) { return sim.StepRelay(t.Step()) }

// Step runs the parse begin started to its next charge (sim.Stepper): on
// datagrams, receives until one finds none; on TCP, passes over the ready
// connections, cyclic from rr, until one finds nothing, rr advancing once
// per pass. Parse order is model behaviour: a connection that becomes
// readable while a frame's reads advance time is served in this pass if
// the cursor has not reached it, as the set is re-read after every frame.
func (t *transport) Step() (sim.Cat, sim.Duration, *sim.Cond) {
	for t.parsing {
		if t.kind != "tcp" {
			if c, d, w := t.dgram.RecvStep(); d > 0 || w != nil {
				return c, d, w
			}
			t.parsing = t.parseDgram()
			t.any = t.any || t.parsing
			continue
		}
		if r := &t.frame; r.conn != nil {
			if c, d, w := t.frameStep(); d > 0 || w != nil {
				return c, d, w
			}
			if !t.conns[r.src].Readable() {
				t.ready.clear(r.src)
			}
			t.progress, t.any = true, true
			t.off = t.ready.after(t.rr, t.off+1, t.size)
		}
		if t.off < t.size {
			t.beginFrame((t.rr + t.off) % t.size)
			continue
		}
		t.rr = (t.rr + 1) % t.size
		t.parsing, t.progress = t.progress, false
		t.off = t.ready.after(t.rr, 0, t.size)
	}
	return 0, 0, nil
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

// tcpParse is one message's reads from a connection: the paper's two
// header reads (type, then credit+envelope) and an eager payload's read, or
// a Data frame's payload landing as it arrives. Each read is atm.TCP.Read's
// steps, repeated until the buffer is full; a full read is booked (the
// Read* spans and counters) and the next begins at the same wake.
type tcpParse struct {
	src   int
	conn  *atm.TCP      // nil: no message in hand
	buf   []byte        // the read in progress ...
	off   int           // ... how much of it is filled ...
	rd    *atm.SockRead // ... and the read into the rest, once begun
	t0    sim.Time      // when the read (a landing's: its first read) began
	stage uint8         // which read: parseType, parseEnv, parsePayload, parseLand or parseJunk
	chunk int           // a landing's bytes: what was buffered when it began
	kind  core.PacketKind
	env   core.Envelope
}

// A message's reads, in order: a Data frame's payload lands in chunks, each
// the receive's share (parseLand) then what is past it, drained (parseJunk).
const (
	parseType = iota
	parseEnv
	parsePayload
	parseLand
	parseJunk
)

// beginFrame takes the message at the head of src's stream in hand, or the
// rest of the Data frame whose payload is partly read: everything readable
// on the stream is its payload.
func (t *transport) beginFrame(src int) {
	r := &t.frame
	r.src, r.conn = src, t.conns[src]
	if t.eng.PayloadLeft(src) > 0 {
		t.land()
	} else {
		r.buf, r.off, r.stage, r.t0 = t.hdr[:1], 0, parseType, t.eng.Scheduler().Now()
	}
}

// frameStep runs the message in hand to its next charge, or reports the
// connection to block on; nothing once the message is parsed (conn nil).
func (t *transport) frameStep() (sim.Cat, sim.Duration, *sim.Cond) {
	r := &t.frame
	for r.conn != nil {
		if r.rd == nil { // the read into the rest of the buffer
			r.rd = r.conn.ReadStep(r.buf[r.off:])
		}
		if c, d, w := r.rd.Step(); d > 0 || w != nil {
			return c, d, w
		}
		n := r.rd.Done()
		r.rd = nil
		r.conn.Consumed(n)
		if r.off += n; r.off == len(r.buf) {
			t.next()
		}
	}
	return 0, 0, nil
}

// next books the read just filled and sets up the one after it, or lets go
// of the message.
func (t *transport) next() {
	r := &t.frame
	now := t.eng.Scheduler().Now()
	acct := t.eng.Acct()
	r.off = 0
	switch r.stage {
	case parseType:
		acct.Record(sim.ReadType, sim.Duration(now-r.t0))
		acct.Add(ctrReadType, 1)
		r.buf, r.stage, r.t0 = t.hdr[1:], parseEnv, now
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
				t.next()
			}
		case core.PktData:
			t.eng.DataFrame(r.src, env, int64(aux))
			t.land()
		default:
			t.surface(r.src, kind, env, aux)
			r.conn = nil
		}
	case parsePayload:
		acct.Record(sim.ReadData, sim.Duration(now-r.t0))
		t.inbox.Push(core.Packet{Kind: r.kind, Env: r.env, Data: r.buf, Pool: t.pool})
		r.conn = nil
	default:
		if rest := r.chunk - len(r.buf); r.stage == parseLand && rest > 0 {
			r.buf, r.stage = t.pool.Get(rest), parseJunk
			return
		}
		if r.stage == parseJunk {
			t.pool.Put(r.buf)
		}
		acct.Record(sim.ReadData, sim.Duration(now-r.t0))
		t.eng.Landed(r.src, r.chunk, &t.inbox)
		t.land()
	}
}

// land begins the next chunk of the Data frame in hand: what the kernel
// buffer holds of its payload, read into where Place puts it; with nothing
// buffered, a later poll resumes. Never blocking for more keeps two peers
// that exchange window-exceeding payloads deadlock-free: each alternates
// between pushing its own frame and draining the other's.
func (t *transport) land() {
	r := &t.frame
	r.chunk = min(r.conn.Buffered(), t.eng.PayloadLeft(r.src))
	if r.chunk == 0 {
		r.conn = nil
		return
	}
	r.t0 = t.eng.Scheduler().Now()
	r.buf, r.off, r.stage = t.eng.Place(r.src, r.chunk), 0, parseLand
	if len(r.buf) == 0 { // past what the landing holds: drain and discard
		t.next()
	}
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

// parseDgram consumes the datagram the receive's steps read, reporting
// whether there was one. The frame is released once its bytes are copied
// out or parsed, except an eager payload's.
func (t *transport) parseDgram() bool {
	d, ok, err := t.dgram.TryRecv()
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
