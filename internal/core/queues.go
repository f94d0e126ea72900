package core

import (
	"fmt"

	"repro/internal/sim"
)

// The two queues every Transport shares: the Inbox that carries a packet to
// Poll, and the engine's SendQueue that holds sends back while the
// destination's flow-control capacity is spent. A wire supplies only what
// differs: how a packet travels, and what a send costs at its destination.

// Inbox holds a rank's arrived packets between the context that lands them
// and the Poll that surfaces them. Each packet rides a pooled record whose
// landing callback is bound once, so shipping one allocates neither a
// packet nor a closure (DESIGN §9). A record carried across the wire by
// Flight is drawn from the sender's inbox and returned to the receiver's,
// where Poll copies its packet out and recycles it at once; symmetric
// traffic keeps the lists balanced and the list's bound caps them when it
// is not. The zero value is an empty inbox; one that lands flights needs
// Init.
type Inbox struct {
	eng    *Engine
	q      sim.Queue[*arrival]
	idle   sim.FreeList[arrival]
	polled Packet // what Poll last surfaced; the engine's until the next Poll
}

// arrival is one packet on its way through an Inbox.
type arrival struct {
	to   *Inbox
	pkt  Packet
	land func() // a.arrive, bound on the record's first Flight
}

// Init binds the inbox to the engine its landings wake and whose send
// queue its landed credit returns refill.
func (in *Inbox) Init(eng *Engine) { in.eng = eng }

// get draws an idle record, or makes one.
func (in *Inbox) get() *arrival {
	if a := in.idle.Get(); a != nil {
		return a
	}
	return &arrival{}
}

// Flight loads pkt, addressed to inbox to, onto a record drawn from this
// (the sender's) inbox and returns the callback that lands it, for the wire
// to run in delivery context on the receiver's lane.
func (in *Inbox) Flight(to *Inbox, pkt Packet) (land func()) {
	a := in.get()
	if a.land == nil {
		a.land = a.arrive
	}
	a.to, a.pkt = to, pkt
	return a.land
}

// arrive lands a flight: a credit return refills the engine's send queue,
// any other packet waits for Poll and wakes the engine.
func (a *arrival) arrive() {
	in := a.to
	if a.pkt.Kind == PktCredit {
		src, n := a.pkt.Env.Source, a.pkt.Env.Count
		in.recycle(a)
		in.eng.landCredit(src, n)
		return
	}
	in.q.Push(a)
	in.eng.Wake()
}

// Push queues a packet parsed in the polling process's own context.
func (in *Inbox) Push(pkt Packet) {
	a := in.get()
	a.to, a.pkt = in, pkt
	in.q.Push(a)
}

// Poll surfaces the oldest packet, nil when none waits. The packet is the
// caller's until the next Poll; its record is already back on the idle list.
func (in *Inbox) Poll() *Packet {
	a := in.q.Pop()
	if a == nil {
		return nil
	}
	in.polled = a.pkt
	in.recycle(a)
	return &in.polled
}

// Polled reports the packet Poll last surfaced, the caller's until the
// next Poll.
func (in *Inbox) Polled() *Packet { return &in.polled }

// Len reports how many packets wait.
func (in *Inbox) Len() int { return in.q.Len() }

// recycle returns a finished record to this inbox's idle list.
func (in *Inbox) recycle(a *arrival) {
	a.to, a.pkt = nil, Packet{}
	in.idle.Put(a)
}

// AuditInboxes walks the queues and idle lists of the given inboxes and
// returns how many distinct records rest there, or the first violation: a
// record resting twice (a double recycle), an idle record still naming a
// destination or a payload, or an idle list past its bound. A record in
// flight rests nowhere, so audit a world once it has stopped.
func AuditInboxes(ins ...*Inbox) (int, error) {
	seen := make(map[*arrival]bool)
	rest := func(i int, a *arrival) error {
		if seen[a] {
			return fmt.Errorf("inbox %d: record %p rests twice", i, a)
		}
		seen[a] = true
		return nil
	}
	for i, in := range ins {
		if in.idle.Len() > sim.DefaultFreeMax {
			return 0, fmt.Errorf("inbox %d: %d idle records, bound %d", i, in.idle.Len(), sim.DefaultFreeMax)
		}
		for a := range in.idle.All() {
			if a.to != nil || a.pkt.Data != nil || a.pkt.Pool != nil {
				return 0, fmt.Errorf("inbox %d: idle record %p not cleared: %+v", i, a, a.pkt)
			}
			if err := rest(i, a); err != nil {
				return 0, err
			}
		}
		for a := range in.q.All() {
			if err := rest(i, a); err != nil {
				return 0, err
			}
		}
	}
	return len(seen), nil
}

// SendQueue is the issue-order send queue with per-peer capacity
// accounting that every flow-controlled wire shares: the Meiko's envelope
// slots, the sockets' credit bytes and the MemFabric's bounce bytes. It
// decides *when* a message may transmit; the engine holding it
// (Engine.SetFlow) decides *what*, and the wire *how*. A message that
// cannot transmit at once — its destination's capacity is spent, or an
// earlier message to it already waits — queues in FIFO order behind its
// predecessors, which preserves MPI's non-overtaking rule across mixed
// eager and rendezvous traffic. Not safe for concurrent
// use: it belongs to one rank's lane.
type SendQueue struct {
	cost    func(*Request) int
	initial int
	limit   int // Grant clamp (envelope slots); 0 = unbounded (byte credits)
	avail   []int
	pend    []sim.Queue[*Request]
	acct    *Acct
}

// NewSendQueue returns a queue for peers destinations, each starting with
// initial capacity units. cost reports the units a message consumes at its
// destination (1 envelope slot on the Meiko, header+payload bytes for a
// socket eager message, 0 for a rendezvous envelope). limit, when non-zero,
// caps the capacity a Grant may restore (the Meiko's fixed slot count). The
// optional acct receives the "flow-queued" and "flow-granted" counters.
func NewSendQueue(peers, initial, limit int, cost func(*Request) int, acct *Acct) *SendQueue {
	q := &SendQueue{
		cost:    cost,
		initial: initial,
		limit:   limit,
		avail:   make([]int, peers),
		pend:    make([]sim.Queue[*Request], peers),
		acct:    acct,
	}
	for i := range q.avail {
		q.avail[i] = initial
	}
	return q
}

// Offer submits req for transmission toward req.Env.Dest. It reports true
// when the caller must transmit the message now — capacity has been
// charged. Otherwise the message is queued, strictly behind every earlier
// offer to the same destination, and will be handed to a Grant callback
// once capacity returns.
func (q *SendQueue) Offer(req *Request) bool {
	dst := req.Env.Dest
	if q.pend[dst].Len() == 0 {
		if need := q.cost(req); q.avail[dst] >= need {
			q.avail[dst] -= need
			return true
		}
	}
	q.pend[dst].Push(req)
	q.acct.Add(ctrFlowQueued, 1)
	return false
}

// Grant restores n capacity units toward dst and drains the destination's
// queue in issue order, invoking ship for every message whose capacity now
// clears (capacity already charged). Draining stops at the first message
// that still does not fit, keeping the non-overtaking order intact.
func (q *SendQueue) Grant(dst, n int, ship func(*Request)) {
	q.avail[dst] += n
	if q.limit > 0 && q.avail[dst] > q.limit {
		q.avail[dst] = q.limit
	}
	for q.pend[dst].Len() > 0 {
		need := q.cost(q.pend[dst].Front())
		if q.avail[dst] < need {
			return
		}
		q.avail[dst] -= need
		req := q.pend[dst].Pop()
		q.acct.Add(ctrFlowGranted, 1)
		ship(req)
	}
}

// DropDst fences a dead destination: every message queued toward dst is
// dropped (the engine already failed their requests) and the destination's
// capacity is restored to its initial allotment, so nothing ever queues
// behind a peer that can no longer return capacity.
func (q *SendQueue) DropDst(dst int) {
	for q.pend[dst].Len() > 0 {
		q.pend[dst].Pop()
	}
	q.avail[dst] = q.initial
}

// Available reports the capacity units currently free toward dst.
func (q *SendQueue) Available(dst int) int { return q.avail[dst] }

// QueuedLen reports how many messages wait on capacity toward dst.
func (q *SendQueue) QueuedLen(dst int) int { return q.pend[dst].Len() }
