// Package flow holds what the socket-class transports (TCP, reliable UDP,
// U-Net) share beyond core's queues: the paper's 25-byte wire header codec
// (wire.go) and Owed, the receiver-side ledger of freed reservation owed
// back to each sender, piggybacked on outgoing headers or flushed
// explicitly when traffic is one-sided.
//
// The issue-order send queue that every flow-controlled wire shares —
// Meiko envelope slots, cluster byte credits, MemFabric bounce bytes — is
// core.SendQueue, since the MemFabric inside core uses it too; Queue and
// NewQueue name it here for the benchmark module's per-layer driver.
package flow

import "repro/internal/core"

// Queue is core.SendQueue.
type Queue = core.SendQueue

// NewQueue is core.NewSendQueue.
func NewQueue(peers, initial, limit int, cost func(*core.Request) int, acct *core.Acct) *Queue {
	return core.NewSendQueue(peers, initial, limit, cost, acct)
}

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
