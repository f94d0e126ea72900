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

// laneFor reports the lane of the scheduler owning rank's endpoint.
func (f *MemFabric) laneFor(rank int) int { return f.S.Node(rank, len(f.eps)).LaneID() }

// Attach creates the rank's transport and wires it to engine e, which must
// have been built on its rank's node scheduler.
func (f *MemFabric) Attach(e *Engine) *MemTransport {
	if f.eps == nil {
		f.eps = make([]*MemTransport, e.Size())
	}
	t := &MemTransport{fab: f, eng: e}
	t.inbox.Init(e)
	// With unlimited credits no send waits, so no queue is built, for the
	// reason lastArrival is built lazily.
	var fc *SendQueue
	if f.Credits > 0 {
		fc = NewSendQueue(e.Size(), f.Credits, 0, e.EagerBytes(0), e.Acct())
	}
	e.SetFlow(f.Eager, fc)
	f.eps[e.Rank()] = t
	e.SetTransport(t)
	return t
}

// MemTransport is one rank's endpoint on a MemFabric.
type MemTransport struct {
	fab   *MemFabric
	eng   *Engine // on this rank's (lane) scheduler
	inbox Inbox

	// checked: the poll's PollCost charge is paid, the packet is next.
	checked bool

	// lastArrival[dst] is the latest mailbox delivery already scheduled
	// toward dst. Allocated on first use and only when PerByte > 0: a
	// per-destination table on every rank of a 1 024-rank mem world would
	// be its largest live structure.
	lastArrival map[int]sim.Time
}

var _ Transport = (*MemTransport)(nil)

// delay is the store-burst visibility delay for n payload bytes.
func (f *MemFabric) delay(n int) sim.Duration {
	return f.Latency + sim.Duration(n)*f.PerByte
}

// arrival is when a mailbox delivery of n payload bytes issued now lands
// at dst. Stores from one rank drain through its write buffer in issue
// order, so a small burst never lands before an earlier, larger one toward
// the same destination; with a flat latency arrivals are monotone already.
func (t *MemTransport) arrival(dst, n int) sim.Time {
	at := t.eng.s.Now() + sim.Time(t.fab.delay(n))
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
	t.eng.s.Route(t.fab.laneFor(dst), t.arrival(dst, len(pkt.Data)), t.inbox.Flight(&to.inbox, pkt))
}

// Ship implements Transport: an eager payload travels in a bounce copy,
// and a credit only when the fabric counts credits.
func (t *MemTransport) Ship(p *sim.Proc, dst int, pkt Packet) {
	switch pkt.Kind {
	case PktEager:
		pkt.Data, pkt.Pool = t.eng.Bounce(t.fab.eps[dst].eng, pkt.Data)
	case PktCredit:
		if t.fab.Credits == 0 {
			return
		}
	}
	t.deliver(dst, pkt)
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
}

// PeerDown implements Transport: a store burst holds no per-peer state.
func (t *MemTransport) PeerDown(rank int) {}

// PollCost reports the one charge the fabric makes a rank: the poll's, per
// packet (see Engine.SetTransport).
func (t *MemTransport) PollCost() sim.Duration { return t.fab.PollCost }

// PollStep implements Transport: the mailbox check's PollCost charge, then
// the packet at the mailbox's head.
func (t *MemTransport) PollStep() (sim.Cat, sim.Duration, *Packet, *sim.Cond) {
	if t.inbox.Len() == 0 { // only the poll empties it: checked is false
		return 0, 0, nil, nil
	}
	if d := t.fab.PollCost; d > 0 && !t.checked {
		t.checked = true
		return sim.Protocol, d, nil, nil
	}
	t.checked = false
	return 0, 0, t.inbox.Poll(), nil
}

// ------------------------------------------------------------ RemoteMemory --
//
// The fabric's one-sided operations are the executable specification of
// the RemoteMemory contract: a store burst crosses the fabric, applies
// directly to the target window in delivery context (never touching the
// target's matcher or mailbox), and the completion ack crosses back before
// done fires on the origin lane. The leg carrying the payload costs
// delay(len), the other delay(0); RMA transfers are unordered within an
// epoch (the fence orders them), so neither is clamped
// like a mailbox delivery. Payloads are snapshotted on the origin lane so
// cross-lane transfers never share mutable storage between lanes.

var _ RemoteMemory = (*MemTransport)(nil)

// RMAWrite implements RemoteMemory.
func (t *MemTransport) RMAWrite(p *sim.Proc, dst, win, off int, data []byte, done func()) {
	snap := make([]byte, len(data))
	copy(snap, data)
	home := t.eng.s.LaneID()
	t.eng.s.RouteAfter(t.fab.laneFor(dst), t.fab.delay(len(snap)), func() {
		peer := t.fab.eps[dst]
		copy(peer.eng.Win(win)[off:], snap)
		peer.eng.s.RouteAfter(home, t.fab.delay(0), done)
	})
}
