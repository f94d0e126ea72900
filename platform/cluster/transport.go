package cluster

import (
	"math/bits"
	"slices"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/sim"
)

// The transport's counters. Table 1's rows count each header read here and
// record every read's span beside the clock under sim.Read*.
var ctrEager, ctrRndv, ctrRndvRtr = core.Counter("eager"), core.Counter("rndv"), core.Counter("rndv-rtr")
var ctrRtrPost, ctrRtrStale = core.Counter("rtr-post"), core.Counter("rtr-stale")
var ctrReadType, ctrReadEnv = core.Counter("read-type"), core.Counter("read-env")

// ctrRetransmit counts the frames a rank's RUDP sent again (timer and fast
// retransmit); a loss-free wire should book none.
var ctrRetransmit = core.Counter("rudp.retransmit")

// headerBytes is the paper's 25-byte protocol header, shared with the
// other socket transports through internal/flow.
const headerBytes = flow.HeaderBytes

// transport implements core.Transport over the cluster's sockets.
type transport struct {
	cl    *atm.Cluster
	eng   *core.Engine
	rank  int
	size  int
	max   int    // eager threshold
	kind  string // "tcp" | "udp" | "unet"
	peers []*transport

	conns []*atm.TCP // TCP mesh (nil diagonal)
	ready readySet   // conns with buffered bytes, so a poll costs O(arrivals)
	dgram dgramLink  // UDP (reliable layer) or U-Net mode

	// pool recycles TCP frame scratch (Write copies into the kernel, so a
	// frame is recyclable as soon as the call returns), TCP eager bounce
	// buffers and stale-claim bounce buffers (the engine's pool, so counters
	// land in the rank's account). Datagram frames never come from it: they
	// are the link's, recycled by hold count (dgramLink.Frame).
	pool *core.BufPool

	inbox core.Inbox // parsed frames waiting for Poll
	rr    int        // round-robin parse start

	// Credit flow control (sender side): bytes we may still push toward
	// each destination's reserved memory, queued sends held in issue order.
	fc         *core.SendQueue
	creditCond *sim.Cond
	// Receiver side: freed reservation owed back to each sender.
	owed *flow.Owed

	// RDMA-write rendezvous (MPICH2/InfiniBand style): advertisements of
	// pre-posted rendezvous receives, by destination rank, consumed by the
	// first matching standard/buffered rendezvous send. noRTR pins the
	// two-sided RTS/CTS protocol (the ablation's baseline).
	rtrQ  map[int][]rtrAd
	noRTR bool
	// The landing of each source's rendezvous payload, allocated on its
	// first. One per source suffices on a stream and on datagrams alike: a
	// sender pushes a payload from its one proc and sends nothing else
	// until it is done, and RUDP and U-Net deliver its chunks in order. On
	// TCP the payload read consumes only what the kernel buffer holds and
	// resumes on later polls, so a receiver never parks mid-frame holding
	// unsent bytes of its own.
	inData []*landing

	// Buffered sends whose credits arrived; shipped on the next Poll from
	// the owning process's context.
	pendingShip sim.Queue[*core.Request]
}

// landing is where one source's rendezvous payload goes as its bytes
// arrive. It is busy from the payload's first frame until got reaches the
// message's size.
type landing struct {
	env    core.Envelope // the message's, from the first frame; Count is its full size
	got    int           // payload bytes in so far
	name   int64         // the receive it completes; 0 when it surfaces nothing
	buf    []byte        // the part of the receive's buffer the message fills
	bounce []byte        // a stale claim's payload, re-entering as an eager arrival
}

func (st *landing) busy() bool { return st.got < st.env.Count }

// rtrAd is one sender-side record of a peer's pre-posted receive.
type rtrAd struct {
	env  core.Envelope // Source = advertising rank; Count = buffer capacity
	name uint32        // the advertised receive's wire name
}

func newTransport(cl *atm.Cluster, eng *core.Engine, rank, size, eager, credit int, kind string, peers []*transport) *transport {
	t := &transport{
		cl:         cl,
		eng:        eng,
		rank:       rank,
		size:       size,
		max:        eager,
		kind:       kind,
		peers:      peers,
		conns:      make([]*atm.TCP, size),
		ready:      make(readySet, (size+63)/64),
		creditCond: sim.NewCond(cl.SchedOf(rank)),
		// A quarter of the reservation owed triggers an explicit credit
		// return (one-sided traffic), keeping the pair deadlock-free.
		owed:   flow.NewOwed(size, credit/4),
		rtrQ:   make(map[int][]rtrAd),
		inData: make([]*landing, size),
		pool:   eng.Pool(),
	}
	// Eager messages charge header+payload bytes against the receiver's
	// reservation; rendezvous envelopes are credit-exempt (their payload is
	// flow controlled by the CTS handshake) but still queue in issue order.
	t.fc = core.NewSendQueue(size, credit, 0, func(req *core.Request) int {
		if req.Env.Count > t.max {
			return 0
		}
		return headerBytes + req.Env.Count
	}, eng.Acct())
	peers[rank] = t
	return t
}

func (t *transport) attachConn(peer int, c *atm.TCP) {
	t.conns[peer] = c
	// An arrival marks the connection ready (frames are never empty, so it
	// always leaves bytes buffered); parseAvailable unmarks it once drained.
	c.OnReadable(func() {
		t.ready.set(peer)
		t.wake()
	})
	// Window updates must reach a writer parked in interleave (its yield
	// waits on the transport-wide creditCond, since the wakeup it needs may
	// arrive on any connection, not just the one it is writing).
	c.OnWritable(func() { t.wake() })
}

// dgramLink abstracts a reliable, in-order datagram channel: the RUDP
// layer over UDP, or the U-Net user-level endpoint (whose dedicated
// flow-controlled switch links are lossless and ordered by construction).
// A datagram is one buffer that is held instead of copied: Frame draws it,
// SendFrame takes the caller's hold (Headroom bytes the link fills in, then
// the message), and TryRecv returns a read-only view of the sender's frame
// that stays valid until the reader passes it to Release.
type dgramLink interface {
	Headroom() int
	Frame(n int) *atm.Frame
	SendFrame(p *sim.Proc, dst int, f *atm.Frame) error
	TryRecv(p *sim.Proc) (d atm.Datagram, ok bool, err error)
	Release(d atm.Datagram)
	Readable() bool
	MaxDatagram() int
	OnArrival(fn func())
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

func (l unetLink) Readable() bool      { return l.u.Readable() }
func (l unetLink) MaxDatagram() int    { return atm.UNetMaxPDU }
func (l unetLink) OnArrival(fn func()) { l.u.OnReadable(fn) }

func (t *transport) attachDgram(d dgramLink) {
	t.dgram = d
	d.OnArrival(func() { t.wake() })
}

// wake rouses both the engine (blocked receivers) and any sender parked on
// flow control — a credit return may be riding the arrival.
func (t *transport) wake() {
	t.creditCond.Broadcast()
	t.eng.Wake()
}

var _ core.Transport = (*transport)(nil)

// MaxEager implements core.Transport.
func (t *transport) MaxEager() int { return t.max }

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

// transmit ships one protocol message whose flow control has cleared:
// rendezvous envelope or eager header+payload.
func (t *transport) transmit(p *sim.Proc, req *core.Request) {
	if req.Err() != nil || t.eng.PeerDead(req.Env.Dest) {
		// The destination died while the message queued on flow control (the
		// engine already failed the request with ErrPeerDown). Done() is the
		// wrong guard here: a buffered send completes at Isend time yet must
		// still ship.
		return
	}
	if req.Env.Count > t.max {
		if ad, ok := t.takeRTR(req); ok {
			// The receiver advertised a matching pre-posted buffer: write
			// the payload directly, skipping the RTS/CTS round trip.
			t.eng.Acct().Add(ctrRndvRtr, 1)
			t.pushPayload(p, req, ad.name, true)
			return
		}
		// Rendezvous: envelope only; the payload moves on CTS.
		t.eng.Acct().Add(ctrRndv, 1)
		t.writeFrame(p, req.Env.Dest, core.PktRTS, req.Env, 0, nil)
		return
	}
	t.eng.Acct().Add(ctrEager, 1)
	t.writeFrame(p, req.Env.Dest, core.PktEager, req.Env, 0, req.Buf)
	t.eng.SendDone(req)
}

// Send implements core.Transport. It never blocks: messages short of
// credits queue in the send queue in issue order (behind any queued
// predecessor, including rendezvous envelopes, preserving MPI's
// non-overtaking rule) and are shipped from the owning process's next Poll
// once credits return.
func (t *transport) Send(p *sim.Proc, req *core.Request) {
	if t.fc.Offer(req) {
		t.transmit(p, req)
	}
}

// Accept implements core.Transport: send the CTS naming the receive, which
// the payload's Data frames name in turn.
func (t *transport) Accept(p *sim.Proc, msg *core.InMsg, req *core.Request) {
	t.writeFrame(p, msg.Env.Source, core.PktCTS, msg.Env, uint32(req.ID), nil)
}

// SendPayload implements core.Transport: a CTS surfaced at the sender, so
// this process pushes the payload itself — the cluster has no co-processor
// to do it in the background, which is exactly the progress limitation the
// paper discusses for socket transports.
func (t *transport) SendPayload(p *sim.Proc, req *core.Request, pkt *core.Packet) {
	t.pushPayload(p, req, uint32(pkt.Landing), false)
}

// pushPayload writes req's rendezvous payload as Data frames naming the
// receive name — clocked by a CTS, or direct: straight to an advertised
// buffer with no preceding RTS/CTS exchange. Every frame carries the
// message's envelope, its count the full size. A direct write clears the
// sender's name from it, since it answers no CTS: that is how the receiver
// tells the two apart when one receive has both in flight, its stale
// advertisement's direct write and its own CTS-clocked payload. Direct data
// is credit-exempt, like the CTS-clocked payload it replaces.
func (t *transport) pushPayload(p *sim.Proc, req *core.Request, name uint32, direct bool) {
	dst := req.Env.Dest
	env, data := req.Env, req.Buf
	if direct {
		env.SendID = 0
	}
	if t.kind == "tcp" {
		// The frame may exceed the receiver's TCP window, and the peer may
		// be pushing an equally large frame at us at the same moment (the
		// symmetric exchanges every large collective performs). A plain
		// blocking write would park both sides on window space with neither
		// draining its inbound stream, so interleave: whenever the window
		// closes, parse whatever has arrived before parking.
		frame := t.tcpFrame(dst, core.PktData, env, name, data)
		t.conns[dst].WriteInterleaved(p, frame, func() {
			if !t.parseAvailable(p) {
				t.creditCond.Wait(p)
			}
		})
		t.pool.Put(frame)
		t.eng.SendDone(req)
		return
	}
	// Datagram modes: chunk to datagram size. A chunk's place in the
	// payload is its place in the source's in-order stream, and its length
	// the datagram's.
	maxChunk := t.dgram.MaxDatagram() - headerBytes
	for off := 0; off < len(data) || off == 0; off += maxChunk {
		t.writeFrame(p, dst, core.PktData, env, name, data[off:min(off+maxChunk, len(data))])
	}
	t.eng.SendDone(req)
}

// --------------------------------------------------- RDMA-write rendezvous --
//
// The socket transports have no remote-memory primitive, but they can
// still eliminate the rendezvous matching round trip the way MPICH2 does
// on InfiniBand: when a rendezvous-sized receive is posted before its
// message with a specific source and tag, the receiver advertises the
// buffer (PktRTR, credit-exempt) and the sender's first matching
// standard/buffered rendezvous send writes its payload directly — one
// traversal instead of three.
//
// The advertisement is purely an optimization, never a promise: the
// receive stays posted in the matcher, so an earlier in-flight message
// can still match it. The direct payload therefore *claims* the receive
// when it starts arriving; if the claim fails the bytes detour through a
// bounce buffer and re-enter the matcher as an eager arrival in their
// exact stream position, which preserves MPI's per-pair matching order
// (all frames of the direct payload precede any later frame from that
// sender on the same ordered channel). The claim itself is not ordered: it
// is made when the first frame is parsed, and an earlier message from that
// sender parsed in the same poll is matched only after it
// (TestDirectClaimOvertakesPinned).

// AdvertiseRecv implements core.RecvAdvertiser: tell the prospective
// sender the pre-posted receive's name. The receiver holds nothing for it.
func (t *transport) AdvertiseRecv(p *sim.Proc, req *core.Request) {
	if t.noRTR {
		return
	}
	// The frame's envelope names this rank as source (it is the frame's
	// sender) and carries the posted signature plus buffer capacity.
	ad := core.Envelope{Source: t.rank, Tag: req.Env.Tag, Context: req.Env.Context, Count: len(req.Buf)}
	t.eng.Acct().Add(ctrRtrPost, 1)
	t.writeFrame(p, req.Env.Source, core.PktRTR, ad, uint32(req.ID), nil)
}

// takeRTR consumes the first advertisement matching a rendezvous send.
// Synchronous sends keep the RTS/CTS path (their ack rides the CTS), and
// ready sends assert the receive exists anyway; an advertisement whose
// capacity is short of the message falls back too, keeping truncation on
// the one code path that handles it.
func (t *transport) takeRTR(req *core.Request) (rtrAd, bool) {
	if t.noRTR || (req.Env.Mode != core.ModeStandard && req.Env.Mode != core.ModeBuffered) {
		return rtrAd{}, false
	}
	q := t.rtrQ[req.Env.Dest]
	for i, ad := range q {
		if ad.env.Context == req.Env.Context && ad.env.Tag == req.Env.Tag && ad.env.Count >= req.Env.Count {
			t.rtrQ[req.Env.Dest] = slices.Delete(q, i, i+1)
			return ad, true
		}
	}
	return rtrAd{}, false
}

// Control implements core.Transport (synchronous-mode acks).
func (t *transport) Control(p *sim.Proc, dst int, kind core.PacketKind, env core.Envelope) {
	t.writeFrame(p, dst, kind, env, 0, nil)
}

// Release implements core.Transport: reservation freed at the receiver.
// Credit returns piggyback on outgoing headers; when a quarter of the
// reservation is owed (one-sided traffic), an explicit credit message
// flushes it — keeping the pair deadlock-free.
func (t *transport) Release(p *sim.Proc, src int, n int) {
	if t.owed.Add(src, n+headerBytes) {
		t.writeFrame(p, src, core.PktCredit, core.Envelope{Source: t.rank}, 0, nil)
	}
}

// PeerDown implements core.Transport: fence every piece of per-peer
// transport state toward a dead rank so nothing ever retries into its
// black hole — queued sends are dropped (the engine already failed their
// requests), rendezvous bookkeeping toward it is forgotten, flow-control
// capacity is restored (the corpse can never grant credit back), and the
// wire itself is fenced (TCP discards, RUDP abandons retransmission).
func (t *transport) PeerDown(rank int) {
	delete(t.rtrQ, rank)
	// The corpse's landing lets go of the receive and returns a stale
	// claim's bounce buffer to the pool, but keeps its cursor: the rest of
	// a payload the corpse's kernel still sends drains into nothing.
	if st := t.inData[rank]; st != nil {
		t.pool.Put(st.bounce)
		st.name, st.buf, st.bounce = 0, nil, nil
	}
	t.fc.DropDst(rank)
	t.pendingShip.Filter(func(req *core.Request) bool { return req.Env.Dest != rank })
	if t.kind == "tcp" {
		if c := t.conns[rank]; c != nil {
			c.Drop()
		}
	} else if dp, ok := t.dgram.(interface{ DropPeer(int) }); ok {
		dp.DropPeer(rank)
	}
	t.wake()
}

// addCredit books returned reservation at the sender side: the send queue
// re-admits queued sends in issue order onto the pendingShip list; the
// owning process transmits them on its next Poll (kernel writes need a
// process context to charge).
func (t *transport) addCredit(src, n int) {
	if n == 0 {
		return
	}
	t.fc.Grant(src, n, t.pendingShip.Push)
	t.creditCond.Broadcast()
	t.eng.Wake()
}

// Poll implements core.Transport. Shipping runs after parsing: the parse
// step is what returns credits, and a send freed by this very poll must go
// out now (the engine stops polling once Poll returns nil).
func (t *transport) Poll(p *sim.Proc) *core.Packet {
	if t.inbox.Len() == 0 {
		t.parseAvailable(p)
	}
	t.shipPending(p)
	return t.inbox.Poll()
}

// shipPending transmits queued sends whose flow control cleared.
func (t *transport) shipPending(p *sim.Proc) {
	for t.pendingShip.Len() > 0 {
		t.transmit(p, t.pendingShip.Pop())
	}
}

// Pending implements core.Transport.
func (t *transport) Pending() bool {
	if t.inbox.Len() > 0 || t.pendingShip.Len() > 0 {
		return true
	}
	if t.kind == "tcp" {
		return t.ready.any()
	}
	return t.dgram.Readable()
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

func (r readySet) any() bool {
	for _, w := range r {
		if w != 0 {
			return true
		}
	}
	return false
}

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
// header reads (message type, then credit+envelope) and any payload read.
func (t *transport) parseTCP(p *sim.Proc, src int, conn *atm.TCP) {
	if st := t.inData[src]; st != nil && st.busy() {
		// Resume the partially-read Data frame before touching headers:
		// everything readable on this stream is its remaining payload.
		t.readData(p, conn, st)
		return
	}
	acct := t.eng.Acct()
	var hdr [headerBytes]byte

	t0 := p.Now()
	conn.ReadFull(p, hdr[:1])
	acct.Record(sim.ReadType, sim.Duration(p.Now()-t0))
	acct.Add(ctrReadType, 1)

	t1 := p.Now()
	conn.ReadFull(p, hdr[1:])
	acct.Record(sim.ReadEnv, sim.Duration(p.Now()-t1))
	acct.Add(ctrReadEnv, 1)

	kind, credit, env, aux := flow.DecodeHeader(hdr[:])
	t.addCredit(src, credit)

	switch kind {
	case core.PktEager:
		payload := t.pool.Get(env.Count)
		t2 := p.Now()
		conn.ReadFull(p, payload)
		acct.Record(sim.ReadData, sim.Duration(p.Now()-t2))
		t.inbox.Push(core.Packet{Kind: kind, Env: env, Data: payload, Pool: t.pool})
	case core.PktData:
		t.readData(p, conn, t.dataFrame(src, env, aux))
	default:
		t.surface(src, kind, env, aux)
	}
}

// surface handles a frame that carries no payload, which is therefore the
// same on a stream and in a datagram: protocol packets go to the inbox for
// the engine, advertisements and credit returns stay in the transport.
func (t *transport) surface(src int, kind core.PacketKind, env core.Envelope, aux uint32) {
	switch kind {
	case core.PktRTS, core.PktRevoke:
		t.inbox.Push(core.Packet{Kind: kind, Env: env})
	case core.PktCTS:
		t.inbox.Push(core.Packet{Kind: kind, Env: env, ReqID: env.SendID, Landing: int64(aux)})
	case core.PktSyncAck:
		t.inbox.Push(core.Packet{Kind: kind, Env: env, ReqID: env.SendID})
	case core.PktRTR:
		t.rtrQ[env.Source] = append(t.rtrQ[env.Source], rtrAd{env: env, name: aux})
	case core.PktCredit:
		// Credit already booked from the header; nothing to surface.
	default:
		t.eng.Errors = append(t.eng.Errors, core.Errorf(core.ErrInternal, "unknown packet kind %d from %d", kind, src))
	}
}

// dataFrame books one Data frame from src and returns src's landing. The
// frame that finds it idle starts a payload and resolves the receive it
// names: a CTS-clocked payload lands in its live receive; a direct write
// claims its advertised receive from the matcher and, when the claim fails
// (the receive matched an earlier message meanwhile), lands in a bounce
// buffer instead, for re-injection. A frame whose payload lands nowhere is
// a protocol error from a live sender; from a dead one it is the rest of
// what its kernel sent, drained.
func (t *transport) dataFrame(src int, env core.Envelope, name uint32) *landing {
	st := t.inData[src]
	if st == nil {
		st = new(landing)
		t.inData[src] = st
	}
	dead := t.eng.PeerDead(src)
	if !st.busy() {
		*st = landing{env: env}
		direct := env.SendID == 0
		var req *core.Request
		if !dead {
			req = t.eng.ClaimDirect(int64(name), direct)
		}
		switch {
		case req != nil:
			st.name, st.buf = req.ID, req.Buf[:min(env.Count, len(req.Buf))]
		case direct && !dead:
			st.bounce = t.pool.Get(env.Count)
			t.eng.Acct().Add(ctrRtrStale, 1)
		}
	}
	if st.name == 0 && st.bounce == nil && !dead {
		t.eng.Errors = append(t.eng.Errors, core.Errorf(core.ErrInternal, "rendezvous data for unknown receive %d", name))
	}
	return st
}

// place reports where the next n payload bytes land: a stale claim's bounce
// buffer (sized to the full message, so it never truncates), else the
// receive's buffer up to the bytes that fit it. Bytes the slice does not
// cover are discarded. Asked per read: each read charges time, and PeerDown
// may take the landing away meanwhile.
func (st *landing) place(n int) []byte {
	if st.bounce != nil {
		return st.bounce[st.got : st.got+n]
	}
	return st.buf[min(st.got, len(st.buf)):min(st.got+n, len(st.buf))]
}

// landingDone completes a landing whose last byte is in: the engine gets
// PktData naming the receive — or a stale claim's bounced payload as an
// eager arrival, in its exact stream position. A payload that landed
// nowhere surfaces nothing.
//
// A bounce drifts the pair's credit. The engine's eager path Releases the
// bounced message's header and payload, which the credit-exempt direct
// write never reserved, so the sender's credit grows by that much for good.
// A 32 KiB bounce alone crosses the default quarter-reservation flush
// (16 KiB), so each one also sends an explicit PktCredit. This is no rare
// race: where advertisements run one message behind, every direct write
// bounces (15 120 of them, and as many credit frames, in one 16-rank
// 32 KiB shuffle on cluster/udp).
func (t *transport) landingDone(st *landing) {
	if st.bounce != nil {
		t.inbox.Push(core.Packet{Kind: core.PktEager, Env: st.env, Data: st.bounce, Pool: t.pool})
	} else if st.name != 0 {
		t.inbox.Push(core.Packet{Kind: core.PktData, Env: st.env, ReqID: st.name})
	}
	st.name, st.buf, st.bounce = 0, nil, nil
}

// readData lands however much of a rendezvous payload the kernel buffer
// holds, resuming on later polls until the frame completes. Reading only
// buffered bytes — never parking for more — is what keeps two peers
// exchanging window-exceeding payloads deadlock-free: each side alternates
// between pushing its own frame and draining the other's.
func (t *transport) readData(p *sim.Proc, conn *atm.TCP, st *landing) {
	acct := t.eng.Acct()
	for st.busy() {
		n := min(conn.Buffered(), st.env.Count-st.got)
		if n == 0 {
			return // resume when the next segment arrives
		}
		t2 := p.Now()
		land := st.place(n)
		conn.ReadFull(p, land)
		if rest := n - len(land); rest > 0 {
			// Past what the landing holds: drain and discard.
			junk := t.pool.Get(rest)
			conn.ReadFull(p, junk)
			t.pool.Put(junk)
		}
		acct.Record(sim.ReadData, sim.Duration(p.Now()-t2))
		st.got += n
	}
	t.landingDone(st)
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
	t.addCredit(env.Source, credit)
	payload := buf[headerBytes:]

	switch kind {
	case core.PktEager:
		// GC-owned (Pool nil): the engine may keep the view on its
		// unexpected queue and will never recycle it, so the frame keeps
		// this datagram's hold for good.
		t.inbox.Push(core.Packet{Kind: kind, Env: env, Data: payload})
		return true
	case core.PktData:
		st := t.dataFrame(env.Source, env, aux)
		copy(st.place(len(payload)), payload)
		st.got += len(payload)
		if !st.busy() {
			t.landingDone(st)
		}
	default:
		t.surface(env.Source, kind, env, aux)
	}
	t.dgram.Release(d)
	return true
}
