package core

import (
	"fmt"

	"repro/internal/sim"
)

// MemFabric is a reference Transport implementation: an idealized
// interconnect with a flat latency and optional per-pair bounce credits.
// It exists to test the engine's protocol logic in isolation from any
// platform cost model, and as the executable specification of the
// Transport contract that the Meiko and cluster transports implement.
//
// The fabric is built on whatever scheduler the world was given: each
// rank's endpoint lives on that rank's node scheduler (sim.Scheduler.Node)
// and deliveries go through Route, which crosses lanes on a shard and is a
// plain timer on a standalone scheduler. The flat Latency is the natural
// lookahead bound.
type MemFabric struct {
	S        *sim.Scheduler
	Latency  sim.Duration
	Eager    int // eager/rendezvous crossover in bytes
	Credits  int // per-(sender,receiver) bounce bytes; 0 means unlimited
	PollCost sim.Duration

	n   int // job size, learned from the first attached engine
	eps map[int]*MemTransport
}

// NewMemFabric returns a fabric for the world built on s. The fabric
// latency must be at least s's lookahead, or cross-lane deliveries would
// land inside the epoch window. Attach endpoints with Attach before
// running.
func NewMemFabric(s *sim.Scheduler, latency sim.Duration, eager int) *MemFabric {
	if latency < s.Lookahead() {
		panic(fmt.Sprintf("memtransport: fabric latency %v below shard lookahead %v", latency, s.Lookahead()))
	}
	return &MemFabric{S: s, Latency: latency, Eager: eager, eps: make(map[int]*MemTransport)}
}

// schedFor reports the scheduler owning rank's endpoint.
func (f *MemFabric) schedFor(rank int) *sim.Scheduler { return f.S.Node(rank, f.n) }

// laneFor reports rank's lane.
func (f *MemFabric) laneFor(rank int) int { return f.schedFor(rank).LaneID() }

// crossLane reports whether a and b live on different lanes.
func (f *MemFabric) crossLane(a, b int) bool { return f.schedFor(a) != f.schedFor(b) }

// Attach creates the rank's transport and wires it to engine e, which must
// have been built on its rank's node scheduler.
func (f *MemFabric) Attach(e *Engine) *MemTransport {
	f.n = e.Size()
	s := f.schedFor(e.Rank())
	t := &MemTransport{
		fab:       f,
		eng:       e,
		s:         s,
		rank:      e.Rank(),
		avail:     make(map[int]int),
		sendQ:     make(map[int][]*Request),
		creditCnd: sim.NewCond(s),
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
	inbox []*Packet
	inPos int // consumed prefix of inbox; avoids O(n) head shifts

	// Sender-side credit state per destination; lazily initialized to the
	// fabric's credit allotment.
	avail     map[int]int
	sendQ     map[int][]*Request // eager sends queued awaiting credits
	creditCnd *sim.Cond

	// Counters for tests.
	NSent, NDelivered int
}

var _ Transport = (*MemTransport)(nil)

// MaxEager implements Transport.
func (t *MemTransport) MaxEager() int { return t.fab.Eager }

func (t *MemTransport) creditsFor(dst int) int {
	if t.fab.Credits == 0 {
		return 1 << 30
	}
	if _, ok := t.avail[dst]; !ok {
		t.avail[dst] = t.fab.Credits
	}
	return t.avail[dst]
}

// deliver ships pkt to dst after the fabric latency. Every call site runs
// on t's own lane (sends from the rank's proc, credit/CTS turnarounds from
// delivery context), so Route's staging is always lane-local.
func (t *MemTransport) deliver(dst int, pkt *Packet) {
	t.NSent++
	t.s.RouteAfter(t.fab.laneFor(dst), t.fab.Latency, func() {
		peer := t.fab.eps[dst]
		if peer == nil {
			panic(fmt.Sprintf("memtransport: no endpoint for rank %d", dst))
		}
		peer.NDelivered++
		if pkt.Kind == PktCredit {
			// Credits are transport-internal: restore and drain the queue.
			peer.avail[pkt.Env.Dest] = peer.creditsFor(pkt.Env.Dest) + pkt.Env.Count
			peer.drainSendQ(pkt.Env.Dest)
			peer.creditCnd.Broadcast()
			peer.eng.Wake()
			return
		}
		peer.inbox = append(peer.inbox, pkt)
		peer.eng.Wake()
	})
}

// drainSendQ transmits queued sends for dst, in issue order, while flow
// control allows. Runs in event context; completions go through
// Engine.SendDone.
func (t *MemTransport) drainSendQ(dst int) {
	q := t.sendQ[dst]
	for len(q) > 0 {
		req := q[0]
		if req.Env.Count <= t.fab.Eager {
			if t.creditsFor(dst) < req.Env.Count {
				break
			}
			t.avail[dst] -= req.Env.Count
			t.sendEager(req)
			t.eng.SendDone(req)
		} else {
			t.deliver(dst, &Packet{Kind: PktRTS, Env: req.Env})
		}
		q = q[1:]
	}
	t.sendQ[dst] = q
}

// bounce allocates delivery storage for a payload copy. Same-lane
// transfers draw from the sender engine's pool and the
// receiving engine recycles the buffer after copy-out — safe because both
// ends share one scheduler. A cross-lane Put would mutate the source
// lane's freelist from the destination lane, so those transfers use plain
// GC-owned buffers (Pool nil) instead.
func (t *MemTransport) bounce(dst, n int) ([]byte, *BufPool) {
	if t.fab.crossLane(t.rank, dst) {
		return make([]byte, n), nil
	}
	pool := t.eng.Pool()
	return pool.Get(n), pool
}

func (t *MemTransport) sendEager(req *Request) {
	data, pool := t.bounce(req.Env.Dest, len(req.Buf))
	copy(data, req.Buf)
	t.deliver(req.Env.Dest, &Packet{Kind: PktEager, Env: req.Env, Data: data, Pool: pool})
}

// Send implements Transport. Messages queue in issue order behind any
// flow-controlled predecessor so delivery order is preserved.
func (t *MemTransport) Send(p *sim.Proc, req *Request) {
	dst := req.Env.Dest
	n := req.Env.Count
	if len(t.sendQ[dst]) > 0 {
		t.sendQ[dst] = append(t.sendQ[dst], req)
		return
	}
	if n > t.fab.Eager {
		// Rendezvous: ship the envelope; the payload moves on CTS.
		t.deliver(dst, &Packet{Kind: PktRTS, Env: req.Env})
		return
	}
	if t.creditsFor(dst) < n {
		t.sendQ[dst] = append(t.sendQ[dst], req)
		return
	}
	t.avail[dst] -= n
	t.sendEager(req)
	t.eng.SendDone(req)
}

// Accept implements Transport: CTS back to the sender; the payload will
// arrive as PktData carrying the receiver request id.
func (t *MemTransport) Accept(p *sim.Proc, msg *InMsg, req *Request) {
	t.deliver(msg.Env.Source, &Packet{Kind: PktCTS, Env: msg.Env, ReqID: msg.Env.SendID, Handle: req.ID})
}

// SendPayload implements Transport: the CTS surfaced at the sender; move
// the payload straight into the posted receive.
func (t *MemTransport) SendPayload(p *sim.Proc, req *Request, pkt *Packet) {
	data, pool := t.bounce(req.Env.Dest, len(req.Buf))
	copy(data, req.Buf)
	recvID, _ := pkt.Handle.(int64)
	t.deliver(req.Env.Dest, &Packet{Kind: PktData, Env: req.Env, ReqID: recvID, Data: data, Pool: pool})
	t.eng.SendDone(req)
}

// Control implements Transport.
func (t *MemTransport) Control(p *sim.Proc, dst int, kind PacketKind, env Envelope) {
	t.deliver(dst, &Packet{Kind: kind, Env: env, ReqID: env.SendID})
}

// Release implements Transport: return n bounce bytes to the sender side.
func (t *MemTransport) Release(p *sim.Proc, src int, n int) {
	if t.fab.Credits == 0 {
		return
	}
	// Env.Dest names the rank whose credit account at src is restored.
	t.deliver(src, &Packet{Kind: PktCredit, Env: Envelope{Dest: t.rank, Count: n}})
}

// PeerDown implements PeerFencer: drop sends queued toward the dead rank
// (the engine already failed their requests) and reset its credit account —
// a corpse never returns credits, so nothing may wait on them.
func (t *MemTransport) PeerDown(rank int) {
	delete(t.sendQ, rank)
	delete(t.avail, rank)
	t.creditCnd.Broadcast()
}

// Poll implements Transport. The inbox keeps a consumed-prefix index and
// recycles its backing array once drained, so steady-state polling neither
// shifts nor reallocates.
func (t *MemTransport) Poll(p *sim.Proc) *Packet {
	if t.inPos == len(t.inbox) {
		return nil
	}
	t.eng.Acct().Charge(p, CostProtocol, t.fab.PollCost)
	pkt := t.inbox[t.inPos]
	t.inbox[t.inPos] = nil
	t.inPos++
	if t.inPos == len(t.inbox) {
		t.inbox = t.inbox[:0]
		t.inPos = 0
	}
	return pkt
}

// Pending implements Transport.
func (t *MemTransport) Pending() bool { return t.inPos < len(t.inbox) }

// ------------------------------------------------------------ RemoteMemory --
//
// The fabric's one-sided operations are the executable specification of
// the RemoteMemory contract: a store crosses the fabric at the flat
// latency, applies directly to the target window in delivery context
// (never touching the target's matcher or inbox), and the completion ack
// crosses back before done fires on the origin lane. Payloads are
// snapshotted on the origin lane so cross-lane transfers never share
// mutable storage between lanes.

var _ RemoteMemory = (*MemTransport)(nil)

// RMAPut implements RemoteMemory.
func (t *MemTransport) RMAPut(p *sim.Proc, dst, win, off int, data []byte, done func()) {
	snap := make([]byte, len(data))
	copy(snap, data)
	home := t.fab.laneFor(t.rank)
	t.s.RouteAfter(t.fab.laneFor(dst), t.fab.Latency, func() {
		peer := t.fab.eps[dst]
		peer.eng.Win(win).ApplyPut(off, snap)
		peer.s.RouteAfter(home, t.fab.Latency, done)
	})
}

// RMAGet implements RemoteMemory.
func (t *MemTransport) RMAGet(p *sim.Proc, dst, win, off int, buf []byte, done func()) {
	home := t.fab.laneFor(t.rank)
	t.s.RouteAfter(t.fab.laneFor(dst), t.fab.Latency, func() {
		peer := t.fab.eps[dst]
		snap := make([]byte, len(buf))
		peer.eng.Win(win).ReadInto(off, snap)
		peer.s.RouteAfter(home, t.fab.Latency, func() {
			copy(buf, snap)
			done()
		})
	})
}

// RMAAccumulate implements RemoteMemory.
func (t *MemTransport) RMAAccumulate(p *sim.Proc, dst, win, off int, data []byte, op RMAOp, done func()) {
	snap := make([]byte, len(data))
	copy(snap, data)
	home := t.fab.laneFor(t.rank)
	t.s.RouteAfter(t.fab.laneFor(dst), t.fab.Latency, func() {
		peer := t.fab.eps[dst]
		peer.eng.Win(win).ApplyAccumulate(off, snap, op)
		peer.s.RouteAfter(home, t.fab.Latency, done)
	})
}
