package cluster

import (
	"math/bits"
	"slices"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/sim"
)

// Extra accounting labels for Table 1's rows.
const (
	acctReadType = "read-type" // first read: the 1-byte message type
	acctReadEnv  = "read-env"  // second read: credit field + envelope
	acctReadData = "read-data" // payload reads
)

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

	// Rendezvous state, receiver side, holding the receive by name: an
	// advertisement outlives its request. A sender awaiting its CTS keeps no
	// state here: the engine's request table resolves the CTS to the request.
	rndvRecv   map[uint32]*rndvRecvSt // receiver handle -> landing state
	nextHandle uint32
	landings   sim.FreeList[rndvRecvSt]
	// RDMA-write rendezvous (MPICH2/InfiniBand style): advertisements of
	// pre-posted rendezvous receives, by destination rank, consumed by the
	// first matching standard/buffered rendezvous send. noRTR pins the
	// two-sided RTS/CTS protocol (the ablation's baseline).
	rtrQ  map[int][]rtrAd
	noRTR bool
	// The landing of each source's in-progress inbound Data frame (TCP
	// only): the payload read consumes only what the kernel buffer holds
	// and resumes on later polls, so a receiver never parks mid-frame
	// holding unsent bytes of its own.
	inData []*rndvRecvSt

	// Buffered sends whose credits arrived; shipped on the next Poll from
	// the owning process's context.
	pendingShip sim.Queue[*core.Request]
}

// rndvRecvSt is one landing: where a rendezvous payload goes as its bytes
// arrive, on a stream or in datagrams alike.
type rndvRecvSt struct {
	handle uint32        // its key in rndvRecv; 0 for a payload nobody awaits
	name   int64         // the receive request's wire name
	buf    []byte        // its posted buffer
	env    core.Envelope // the status envelope PktData carries
	got    int           // payload bytes landed so far
	want   int           // bytes that fit the posted buffer
	total  int           // full message size announced by the RTS

	// RDMA-write rendezvous state: an advertised pre-posted receive must be
	// claimed from the matcher when its direct payload starts arriving. If
	// the claim fails (the receive matched an earlier message meanwhile),
	// the payload accumulates in bounce and re-enters through the matcher
	// as an eager arrival, in its exact stream position.
	rtr     bool
	started bool
	bounce  []byte
}

// rtrAd is one sender-side record of a peer's pre-posted receive.
type rtrAd struct {
	env core.Envelope // Source = advertising rank; Count = buffer capacity
	aux uint32        // the receiver's landing handle
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
		owed:     flow.NewOwed(size, credit/4),
		rndvRecv: make(map[uint32]*rndvRecvSt),
		rtrQ:     make(map[int][]rtrAd),
		inData:   make([]*rndvRecvSt, size),
		pool:     eng.Pool(),
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
			t.eng.Acct().Incr("rndv-rtr", 1)
			t.pushPayload(p, req, ad.aux, true)
			return
		}
		// Rendezvous: envelope only; the payload moves on CTS.
		t.eng.Acct().Incr("rndv", 1)
		t.writeFrame(p, req.Env.Dest, core.PktRTS, req.Env, 0, nil)
		return
	}
	t.eng.Acct().Incr("eager", 1)
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

// Accept implements core.Transport: register the landing buffer and send
// the CTS naming it.
func (t *transport) Accept(p *sim.Proc, msg *core.InMsg, req *core.Request) {
	want := min(msg.Env.Count, len(req.Buf))
	h := t.register(rndvRecvSt{name: req.ID, buf: req.Buf, env: msg.Env, want: want, total: msg.Env.Count})
	t.writeFrame(p, msg.Env.Source, core.PktCTS, msg.Env, h, nil)
}

// register files a landing under a fresh handle, in a record drawn from the
// free list, and returns the handle. A record PeerDown sweeps is left to the
// collector, since an inData cursor may still hold it.
func (t *transport) register(st rndvRecvSt) uint32 {
	t.nextHandle++
	st.handle = t.nextHandle
	rec := t.landings.Get()
	if rec == nil {
		rec = new(rndvRecvSt)
	}
	*rec = st
	t.rndvRecv[st.handle] = rec
	return st.handle
}

// SendPayload implements core.Transport: a CTS surfaced at the sender, so
// this process pushes the payload itself — the cluster has no co-processor
// to do it in the background, which is exactly the progress limitation the
// paper discusses for socket transports.
func (t *transport) SendPayload(p *sim.Proc, req *core.Request, pkt *core.Packet) {
	t.pushPayload(p, req, uint32(pkt.Landing), false)
}

// pushPayload writes req's rendezvous payload as Data frames naming the
// receiver's landing handle aux — clocked by a CTS, or direct: straight to
// an advertised buffer with no preceding RTS/CTS exchange. Direct data is
// credit-exempt, like the CTS-clocked payload it replaces.
func (t *transport) pushPayload(p *sim.Proc, req *core.Request, aux uint32, direct bool) {
	dst := req.Env.Dest
	data := req.Buf
	if t.kind == "tcp" {
		// The frame may exceed the receiver's TCP window, and the peer may
		// be pushing an equally large frame at us at the same moment (the
		// symmetric exchanges every large collective performs). A plain
		// blocking write would park both sides on window space with neither
		// draining its inbound stream, so interleave: whenever the window
		// closes, parse whatever has arrived before parking.
		frame := t.tcpFrame(dst, core.PktData, req.Env, aux, data)
		t.conns[dst].WriteInterleaved(p, frame, func() {
			if !t.parseAvailable(p) {
				t.creditCond.Wait(p)
			}
		})
		t.pool.Put(frame)
		t.eng.SendDone(req)
		return
	}
	// Datagram modes: chunk to datagram size; the chunk offset travels in
	// the tag field (Data packets carry no user tag) — plus, on direct data,
	// the full message size in the id field, since no RTS ever announced it
	// to the receiver.
	maxChunk := t.dgram.MaxDatagram() - headerBytes
	for off := 0; off < len(data) || off == 0; off += maxChunk {
		end := min(off+maxChunk, len(data))
		env := req.Env
		env.Tag = off
		env.Count = end - off
		if direct {
			env.SendID = int64(len(data))
		}
		t.writeFrame(p, dst, core.PktData, env, aux, data[off:end])
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
// sender on the same ordered channel).

// AdvertiseRecv implements core.RecvAdvertiser: register a landing handle
// for the pre-posted receive and tell the prospective sender about it.
func (t *transport) AdvertiseRecv(p *sim.Proc, req *core.Request) {
	if t.noRTR {
		return
	}
	// st.env is the status envelope should the direct payload land: the
	// posted signature with count/mode filled in from the first frame.
	h := t.register(rndvRecvSt{
		name: req.ID,
		buf:  req.Buf,
		env:  core.Envelope{Source: req.Env.Source, Tag: req.Env.Tag, Context: req.Env.Context},
		want: len(req.Buf),
		rtr:  true,
	})
	// The frame's envelope names this rank as source (it is the frame's
	// sender) and carries the posted signature plus buffer capacity.
	ad := core.Envelope{Source: t.rank, Tag: req.Env.Tag, Context: req.Env.Context, Count: len(req.Buf)}
	t.eng.Acct().Incr("rtr-post", 1)
	t.writeFrame(p, req.Env.Source, core.PktRTR, ad, h, nil)
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
	// Landings the corpse can never finish — accepted RTSs, advertisements
	// naming it — go, and a stale claim's bounce buffer returns to the pool.
	// A TCP frame half read keeps its cursor (inData) and drains into
	// nothing: the corpse's kernel sends the rest regardless. Deletion only,
	// so map order cannot leak into the run.
	for h, st := range t.rndvRecv {
		if st.env.Source == rank {
			t.pool.Put(st.bounce)
			st.bounce, st.want = nil, 0
			delete(t.rndvRecv, h)
		}
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
	if d := t.inData[src]; d != nil {
		// Resume the partially-read Data frame before touching headers:
		// everything readable on this stream is its remaining payload.
		t.readData(p, src, conn, d)
		return
	}
	acct := t.eng.Acct()
	var hdr [headerBytes]byte

	t0 := p.Now()
	conn.ReadFull(p, hdr[:1])
	acct.Book(acctReadType, sim.Duration(p.Now()-t0))
	acct.Incr(acctReadType, 1)

	t1 := p.Now()
	conn.ReadFull(p, hdr[1:])
	acct.Book(acctReadEnv, sim.Duration(p.Now()-t1))
	acct.Incr(acctReadEnv, 1)

	kind, credit, env, aux := flow.DecodeHeader(hdr[:])
	t.addCredit(src, credit)

	switch kind {
	case core.PktEager:
		payload := t.pool.Get(env.Count)
		t2 := p.Now()
		conn.ReadFull(p, payload)
		acct.Book(acctReadData, sim.Duration(p.Now()-t2))
		t.inbox.Push(core.Packet{Kind: kind, Env: env, Data: payload, Pool: t.pool})
	case core.PktData:
		st := t.dataLanding(src, env, aux)
		if st == nil {
			// Nobody awaits this payload; it still has to come off the
			// stream, into nothing.
			st = &rndvRecvSt{total: env.Count}
		}
		t.inData[src] = st
		t.readData(p, src, conn, st)
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
		t.rtrQ[env.Source] = append(t.rtrQ[env.Source], rtrAd{env: env, aux: aux})
	case core.PktCredit:
		// Credit already booked from the header; nothing to surface.
	default:
		t.eng.Errors = append(t.eng.Errors, core.Errorf(core.ErrInternal, "unknown packet kind %d from %d", kind, src))
	}
}

// dataLanding resolves the landing a Data frame from src names, or nil when
// the handle is unknown: PeerDown swept it, or — the sender being alive — a
// protocol error. The first frame of a direct payload starts its landing: the
// total comes from the frame (the envelope's count on a stream; on datagrams
// the id field, since no RTS announced it and each chunk header counts only
// its chunk) and the advertised receive is claimed from the matcher. A failed
// claim (the receive matched an earlier message meanwhile) lands the payload
// in a bounce buffer instead, for re-injection.
func (t *transport) dataLanding(src int, env core.Envelope, aux uint32) *rndvRecvSt {
	st := t.rndvRecv[aux]
	if st == nil {
		if !t.eng.PeerDead(src) {
			t.eng.Errors = append(t.eng.Errors, core.Errorf(core.ErrInternal, "rendezvous data for unknown handle %d", aux))
		}
		return nil
	}
	if st.rtr && !st.started {
		total := env.Count
		if t.kind != "tcp" {
			total = int(env.SendID)
		}
		st.started, st.total = true, total
		st.want = min(st.want, total)
		st.env.Count, st.env.Mode = total, env.Mode
		if !t.eng.ClaimDirect(st.name) {
			st.bounce = t.pool.Get(total)
			t.eng.Acct().Incr("rtr-stale", 1)
		}
	}
	return st
}

// place reports where payload bytes [off, off+n) land: a stale claim's
// bounce buffer (sized to the full message, so it never truncates), else the
// posted buffer up to the bytes that fit it. Bytes the slice does not cover
// are discarded. Asked per read: each read charges time, and PeerDown may
// take the landing away meanwhile.
func (st *rndvRecvSt) place(off, n int) []byte {
	if st.bounce != nil {
		return st.bounce[off : off+n]
	}
	return st.buf[min(off, st.want):min(off+n, st.want)]
}

// landingDone completes a landing whose last byte is in: the handle goes,
// and the engine gets PktData naming the receive — or a stale claim's
// bounced payload as an eager arrival, in its exact stream position. The
// engine's eager path will Release reservation that was never consumed
// (direct data is credit-exempt), slightly inflating the pair's credit; the
// drift is bounded by the stale-claim count and only ever loosens flow
// control, so we accept it for this rare race. A payload nobody awaited
// surfaces nothing.
func (t *transport) landingDone(st *rndvRecvSt) {
	if st.handle != 0 {
		delete(t.rndvRecv, st.handle)
		if st.bounce != nil {
			t.inbox.Push(core.Packet{Kind: core.PktEager, Env: st.env, Data: st.bounce, Pool: t.pool})
		} else {
			t.inbox.Push(core.Packet{Kind: core.PktData, Env: st.env, ReqID: st.name})
		}
	}
	*st = rndvRecvSt{}
	t.landings.Put(st)
}

// readData lands however much of a rendezvous payload the kernel buffer
// holds, resuming on later polls until the frame completes. Reading only
// buffered bytes — never parking for more — is what keeps two peers
// exchanging window-exceeding payloads deadlock-free: each side alternates
// between pushing its own frame and draining the other's.
func (t *transport) readData(p *sim.Proc, src int, conn *atm.TCP, st *rndvRecvSt) {
	acct := t.eng.Acct()
	for st.got < st.total {
		n := min(conn.Buffered(), st.total-st.got)
		if n == 0 {
			return // resume when the next segment arrives
		}
		t2 := p.Now()
		land := st.place(st.got, n)
		conn.ReadFull(p, land)
		if rest := n - len(land); rest > 0 {
			// Past what the landing holds: drain and discard.
			junk := t.pool.Get(rest)
			conn.ReadFull(p, junk)
			t.pool.Put(junk)
		}
		acct.Book(acctReadData, sim.Duration(p.Now()-t2))
		st.got += n
	}
	t.inData[src] = nil
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
		if st := t.dataLanding(env.Source, env, aux); st != nil {
			// The chunk offset rides in the tag field.
			copy(st.place(env.Tag, len(payload)), payload)
			st.got += len(payload)
			if st.got >= st.total {
				t.landingDone(st)
			}
		}
	default:
		t.surface(env.Source, kind, env, aux)
	}
	t.dgram.Release(d)
	return true
}
