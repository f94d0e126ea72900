// Package flow is the shared flow-control layer beneath every transport:
// the machinery the paper's two ports (Meiko envelope slots, cluster byte
// credits) had in common but previously implemented twice.
//
// It provides three pieces:
//
//   - Queue: an issue-order send queue with per-peer capacity accounting.
//     A message that cannot transmit immediately — its destination's
//     capacity (envelope slots or credit bytes) is exhausted, or an earlier
//     message to the same destination is already queued — waits in FIFO
//     order behind its predecessors, preserving MPI's non-overtaking rule
//     across mixed eager and rendezvous traffic.
//   - Owed: receiver-side tracking of freed reservation owed back to each
//     sender, piggybacked on outgoing headers or flushed explicitly when
//     traffic is one-sided.
//   - The 25-byte wire header codec (wire.go), shared by the TCP, RUDP and
//     U-Net cluster transports.
//
// The layer is capacity-unit agnostic: the Meiko charges one unit per
// envelope against a slot budget, the cluster charges header+payload bytes
// against a credit reservation, and a rendezvous envelope on the cluster
// charges nothing (only its later DMA-sized payload is flow controlled by
// the CTS handshake). A CostFunc expresses the difference.
package flow

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// CostFunc reports the capacity units a queued message consumes at its
// destination: 1 envelope slot on the Meiko, header+payload credit bytes
// for a cluster eager message, 0 for a cluster rendezvous envelope.
type CostFunc func(req *core.Request) int

// Queue is the issue-order send queue with per-peer capacity accounting.
// It decides *when* a message may transmit; the owning transport decides
// *how* (transaction, DMA, socket write). Not safe for concurrent use: the
// simulation's single-token scheduler serializes all callers.
type Queue struct {
	cost  CostFunc
	limit int // Grant clamp (envelope slots); 0 = unbounded (byte credits)
	avail []int
	pend  []sim.Queue[*core.Request]
	acct  *core.Acct
}

// NewQueue returns a queue for peers destinations, each starting with
// initial capacity units. limit, when non-zero, caps the capacity a Grant
// may restore (the Meiko's fixed slot count); byte-credit schemes pass 0.
// The optional acct receives the uniform flow counters ("flow-queued",
// "flow-granted") every backend books through this layer.
func NewQueue(peers, initial, limit int, cost CostFunc, acct *core.Acct) *Queue {
	q := &Queue{
		cost:  cost,
		limit: limit,
		avail: make([]int, peers),
		pend:  make([]sim.Queue[*core.Request], peers),
		acct:  acct,
	}
	for i := range q.avail {
		q.avail[i] = initial
	}
	return q
}

// Offer submits req for transmission toward req.Env.Dest. It reports true
// when the caller must transmit the message now — capacity has been
// charged. Otherwise the message is queued, strictly behind every earlier
// offer to the same destination (including rendezvous envelopes), and will
// be handed to a Grant callback once capacity returns.
func (q *Queue) Offer(req *core.Request) bool {
	dst := req.Env.Dest
	if q.pend[dst].Len() == 0 {
		if need := q.cost(req); q.avail[dst] >= need {
			q.avail[dst] -= need
			return true
		}
	}
	q.pend[dst].Push(req)
	q.acct.Incr("flow-queued", 1)
	return false
}

// Grant restores n capacity units toward dst and drains the destination's
// queue in issue order, invoking ship for every message whose capacity now
// clears (capacity already charged). Draining stops at the first message
// that still does not fit, keeping the non-overtaking order intact.
func (q *Queue) Grant(dst, n int, ship func(*core.Request)) {
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
		q.acct.Incr("flow-granted", 1)
		ship(req)
	}
}

// DropDst fences a dead destination: every message queued toward dst is
// removed (in issue order, handed to the optional drop callback so the
// owner can fail it) and the destination's capacity is restored to full so
// nothing ever queues behind a peer that can no longer grant credit back.
func (q *Queue) DropDst(dst, capacity int, drop func(*core.Request)) {
	for q.pend[dst].Len() > 0 {
		if req := q.pend[dst].Pop(); drop != nil {
			drop(req)
		}
	}
	q.avail[dst] = capacity
	if q.limit > 0 && q.avail[dst] > q.limit {
		q.avail[dst] = q.limit
	}
}

// Available reports the capacity units currently free toward dst.
func (q *Queue) Available(dst int) int { return q.avail[dst] }

// QueuedLen reports how many messages wait on capacity toward dst.
func (q *Queue) QueuedLen(dst int) int { return q.pend[dst].Len() }

// Owed tracks, at the receiver, freed reservation owed back to each
// sender. Returns normally piggyback on outgoing protocol headers (Take);
// when traffic is one-sided the balance crosses flushAt and the transport
// must send an explicit credit message — keeping the pair deadlock-free.
type Owed struct {
	owed    []int
	flushAt int // explicit-return threshold; 0 = piggyback only
}

// NewOwed returns an Owed ledger for peers senders with the given
// explicit-flush threshold.
func NewOwed(peers, flushAt int) *Owed {
	return &Owed{owed: make([]int, peers), flushAt: flushAt}
}

// Add books n freed units owed to src and reports whether the balance has
// reached the explicit-flush threshold.
func (o *Owed) Add(src, n int) bool {
	o.owed[src] += n
	return o.flushAt > 0 && o.owed[src] >= o.flushAt
}

// Take consumes the balance owed to src, for piggybacking on an outgoing
// header (explicit credit messages ride the same path: their header's
// credit field carries the flushed balance).
func (o *Owed) Take(src int) int {
	n := o.owed[src]
	o.owed[src] = 0
	return n
}

// Balance reports the units currently owed to src without consuming them.
func (o *Owed) Balance(src int) int { return o.owed[src] }
