package core

import (
	"fmt"

	"repro/internal/sim"
)

// MemFabric is the store-based interconnect: a message is a store burst
// into the receiver's mailbox, visible after Latency plus PerByte per
// payload byte, and one-sided operations apply to the target window
// directly. Every backend whose wire is a memory system runs on it under
// its own cost table: mem (flat latency, PerByte 0) and cluster/shm (the
// attached segment's latency and copy bandwidth). With mem's idealized
// costs it is also the executable specification of the Transport contract
// that the Meiko and socket transports implement, testing the engine's
// protocol logic in isolation from any platform cost model.
//
// The fabric is built on whatever scheduler the world was given: each
// rank's endpoint lives on that rank's node scheduler (sim.Scheduler.Node)
// and deliveries go through Route, which crosses lanes on a shard and is a
// plain timer on a standalone scheduler. Every delay is at least Latency,
// the natural lookahead bound.
type MemFabric struct {
	S        *sim.Scheduler
	Latency  sim.Duration
	PerByte  sim.Duration // store bandwidth cost per payload byte; 0 on mem
	Eager    int          // eager/rendezvous crossover in bytes
	Credits  int          // per-(sender,receiver) bounce bytes; 0 means unlimited
	PollCost sim.Duration

	eps []*MemTransport // by rank; sized to the job by the first Attach
}

// NewMemFabric returns a fabric for the world built on s. The fabric
// latency must be at least s's lookahead, or cross-lane deliveries would
// land inside the epoch window. Attach endpoints with Attach before
// running.
func NewMemFabric(s *sim.Scheduler, latency sim.Duration, eager int) *MemFabric {
	if latency < s.Lookahead() {
		panic(fmt.Sprintf("memtransport: fabric latency %v below shard lookahead %v", latency, s.Lookahead()))
	}
	return &MemFabric{S: s, Latency: latency, Eager: eager}
}

// schedFor reports the scheduler owning rank's endpoint.
func (f *MemFabric) schedFor(rank int) *sim.Scheduler { return f.S.Node(rank, len(f.eps)) }

// laneFor reports rank's lane.
func (f *MemFabric) laneFor(rank int) int { return f.schedFor(rank).LaneID() }

// Attach creates the rank's transport and wires it to engine e, which must
// have been built on its rank's node scheduler.
func (f *MemFabric) Attach(e *Engine) *MemTransport {
	if f.eps == nil {
		f.eps = make([]*MemTransport, e.Size())
	}
	t := &MemTransport{fab: f, eng: e, s: f.schedFor(e.Rank()), rank: e.Rank()}
	t.inbox.Init(e, t)
	if f.Credits > 0 {
		t.fc = NewSendQueue(e.Size(), f.Credits, 0, t.cost, e.Acct())
	}
	f.eps[e.Rank()] = t
	e.SetTransport(t)
	return t
}

// MemTransport is one rank's endpoint on a MemFabric.
type MemTransport struct {
	fab   *MemFabric
	eng   *Engine
	s     *sim.Scheduler // this rank's (lane) scheduler
	rank  int
	inbox Inbox

	// lastArrival[dst] is the latest mailbox delivery already scheduled
	// toward dst. Allocated on first use and only when PerByte > 0: a
	// per-destination table on every rank of a 1 024-rank mem world would
	// be its largest live structure.
	lastArrival map[int]sim.Time

	// fc holds sends back, in issue order, while the pair's bounce bytes
	// are spent; nil when the fabric's credits are unlimited, for the same
	// reason as lastArrival.
	fc *SendQueue
}

var _ Transport = (*MemTransport)(nil)

// MaxEager implements Transport.
func (t *MemTransport) MaxEager() int { return t.fab.Eager }

// cost is the bounce bytes a send takes at its destination: its payload
// when eager, nothing for a rendezvous envelope.
func (t *MemTransport) cost(req *Request) int {
	if req.Env.Count > t.fab.Eager {
		return 0
	}
	return req.Env.Count
}

// delay is the store-burst visibility delay for n payload bytes.
func (f *MemFabric) delay(n int) sim.Duration {
	return f.Latency + sim.Duration(n)*f.PerByte
}

// arrival is when a mailbox delivery of n payload bytes issued now lands
// at dst. Stores from one rank drain through its write buffer in issue
// order, so a small burst never lands before an earlier, larger one toward
// the same destination; with a flat latency arrivals are monotone already.
func (t *MemTransport) arrival(dst, n int) sim.Time {
	at := t.s.Now() + sim.Time(t.fab.delay(n))
	if t.fab.PerByte > 0 {
		if t.lastArrival == nil {
			t.lastArrival = make(map[int]sim.Time)
		}
		at = max(at, t.lastArrival[dst])
		t.lastArrival[dst] = at
	}
	return at
}

// deliver ships pkt into dst's mailbox on a flight of this rank's inbox.
// Every call site runs on t's own lane (sends from the rank's proc,
// credit/CTS turnarounds from delivery context), so Route's staging is
// always lane-local.
func (t *MemTransport) deliver(dst int, pkt Packet) {
	to := t.fab.eps[dst]
	if to == nil {
		panic(fmt.Sprintf("memtransport: no endpoint for rank %d", dst))
	}
	t.s.Route(t.fab.laneFor(dst), t.arrival(dst, len(pkt.Data)), t.inbox.Flight(&to.inbox, pkt))
}

// CreditReturned implements CreditSink: restore src's account and transmit
// the sends it clears, in issue order (completions go through
// Engine.SendDone).
func (t *MemTransport) CreditReturned(src, n int) {
	t.fc.Grant(src, n, t.transmit)
	t.eng.Wake()
}

// transmit ships one send whose flow control has cleared.
func (t *MemTransport) transmit(req *Request) {
	dst := req.Env.Dest
	if req.Env.Count > t.fab.Eager {
		// Rendezvous: ship the envelope; the payload moves on CTS.
		t.deliver(dst, Packet{Kind: PktRTS, Env: req.Env})
		return
	}
	data, pool := t.eng.Bounce(t.fab.eps[dst].eng, req.Buf)
	t.deliver(dst, Packet{Kind: PktEager, Env: req.Env, Data: data, Pool: pool})
	t.eng.SendDone(req)
}

// Send implements Transport. Messages queue in issue order behind any
// flow-controlled predecessor so delivery order is preserved.
func (t *MemTransport) Send(p *sim.Proc, req *Request) {
	if t.fc == nil || t.fc.Offer(req) {
		t.transmit(req)
	}
}

// Accept implements Transport: CTS back to the sender; the payload will
// arrive as PktData carrying the receiver request id.
func (t *MemTransport) Accept(p *sim.Proc, msg *InMsg, req *Request) {
	t.deliver(msg.Env.Source, Packet{Kind: PktCTS, Env: msg.Env, ReqID: msg.Env.SendID, Landing: req.ID})
}

// SendPayload implements Transport: the CTS surfaced at the sender; move
// the payload straight into the posted receive.
func (t *MemTransport) SendPayload(p *sim.Proc, req *Request, pkt *Packet) {
	data, pool := t.eng.Bounce(t.fab.eps[req.Env.Dest].eng, req.Buf)
	t.deliver(req.Env.Dest, Packet{Kind: PktData, Env: req.Env, ReqID: pkt.Landing, Data: data, Pool: pool})
	t.eng.SendDone(req)
}

// Control implements Transport.
func (t *MemTransport) Control(p *sim.Proc, dst int, kind PacketKind, env Envelope) {
	t.deliver(dst, Packet{Kind: kind, Env: env, ReqID: env.SendID})
}

// Release implements Transport: return n bounce bytes to the sender side.
func (t *MemTransport) Release(p *sim.Proc, src int, n int) {
	if t.fc == nil {
		return
	}
	t.deliver(src, Packet{Kind: PktCredit, Env: Envelope{Source: t.rank, Count: n}})
}

// PeerDown implements Transport: drop sends queued toward the dead rank
// (the engine already failed their requests) and reset its credit account —
// a corpse never returns credits, so nothing may wait on them.
func (t *MemTransport) PeerDown(rank int) {
	if t.fc != nil {
		t.fc.DropDst(rank)
	}
}

// Poll implements Transport.
func (t *MemTransport) Poll(p *sim.Proc) *Packet {
	if t.inbox.Len() == 0 {
		return nil
	}
	t.eng.Acct().Charge(p, CostProtocol, t.fab.PollCost)
	return t.inbox.Poll()
}

// Pending implements Transport.
func (t *MemTransport) Pending() bool { return t.inbox.Len() > 0 }

// ------------------------------------------------------------ RemoteMemory --
//
// The fabric's one-sided operations are the executable specification of
// the RemoteMemory contract: a store burst crosses the fabric, applies
// directly to the target window in delivery context (never touching the
// target's matcher or mailbox), and the completion ack crosses back before
// done fires on the origin lane. The leg carrying the payload costs
// delay(len), the other delay(0); RMA transfers are unordered within an
// epoch (fence/lock synchronization orders them), so neither is clamped
// like a mailbox delivery. Payloads are snapshotted on the origin lane so
// cross-lane transfers never share mutable storage between lanes.

var _ RemoteMemory = (*MemTransport)(nil)

// RMAWrite implements RemoteMemory.
func (t *MemTransport) RMAWrite(p *sim.Proc, dst, win, off int, data []byte, op RMAOp, done func()) {
	snap := make([]byte, len(data))
	copy(snap, data)
	home := t.s.LaneID()
	t.s.RouteAfter(t.fab.laneFor(dst), t.fab.delay(len(snap)), func() {
		peer := t.fab.eps[dst]
		peer.eng.Win(win).ApplyAccumulate(off, snap, op)
		peer.s.RouteAfter(home, t.fab.delay(0), done)
	})
}

// RMARead implements RemoteMemory.
func (t *MemTransport) RMARead(p *sim.Proc, dst, win, off int, buf []byte, done func()) {
	home := t.s.LaneID()
	t.s.RouteAfter(t.fab.laneFor(dst), t.fab.delay(0), func() {
		peer := t.fab.eps[dst]
		snap := make([]byte, len(buf))
		peer.eng.Win(win).ReadInto(off, snap)
		peer.s.RouteAfter(home, t.fab.delay(len(snap)), func() {
			copy(buf, snap)
			done()
		})
	})
}
