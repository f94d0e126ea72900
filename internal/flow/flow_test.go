package flow

import (
	"testing"

	"repro/internal/core"
)

func req(dst, count int) *core.Request {
	return core.NewRequest(false, core.Envelope{Dest: dst, Count: count}, nil)
}

// byteCost mimics the cluster: header+payload bytes for eager traffic,
// nothing for a rendezvous envelope (count above the 100-byte threshold).
func byteCost(r *core.Request) int {
	if r.Env.Count > 100 {
		return 0
	}
	return HeaderBytes + r.Env.Count
}

func TestQueueImmediateWhenCapacityFree(t *testing.T) {
	q := NewQueue(2, 1000, 0, byteCost, nil)
	if !q.Offer(req(1, 50)) {
		t.Fatal("offer with free capacity must transmit immediately")
	}
	if got := q.Available(1); got != 1000-HeaderBytes-50 {
		t.Fatalf("available = %d", got)
	}
}

func TestQueueBlocksAndDrainsInIssueOrder(t *testing.T) {
	q := NewQueue(2, 60, 0, byteCost, nil)
	a, b, c := req(1, 50), req(1, 200), req(1, 10)
	if q.Offer(a) {
		t.Fatal("a exceeds capacity, must queue")
	}
	// b is rendezvous (cost 0) but must not overtake the queued a.
	if q.Offer(b) {
		t.Fatal("b must queue behind a")
	}
	if q.Offer(c) {
		t.Fatal("c must queue behind b")
	}
	var shipped []*core.Request
	q.Grant(1, 20, func(r *core.Request) { shipped = append(shipped, r) })
	// 80 units: a (75) clears, then b (0), then c needs 35 > 5 left.
	if len(shipped) != 2 || shipped[0] != a || shipped[1] != b {
		t.Fatalf("shipped %d messages, want a then b", len(shipped))
	}
	q.Grant(1, 100, func(r *core.Request) { shipped = append(shipped, r) })
	if len(shipped) != 3 || shipped[2] != c {
		t.Fatal("c must ship after more capacity returns")
	}
	if q.QueuedLen(1) != 0 {
		t.Fatal("queue must be empty")
	}
}

func TestQueueSlotSemantics(t *testing.T) {
	// One envelope slot per pair, unit cost: the Meiko regime. A freed slot
	// is immediately reused by the queued successor.
	slot := func(*core.Request) int { return 1 }
	q := NewQueue(2, 1, 1, slot, nil)
	if !q.Offer(req(1, 5)) {
		t.Fatal("first envelope owns the slot")
	}
	b := req(1, 6)
	if q.Offer(b) {
		t.Fatal("second envelope must wait for the slot")
	}
	var shipped []*core.Request
	q.Grant(1, 1, func(r *core.Request) { shipped = append(shipped, r) })
	if len(shipped) != 1 || shipped[0] != b {
		t.Fatal("freed slot must be reused by the queued envelope")
	}
	if q.Available(1) != 0 {
		t.Fatalf("slot must be busy again, avail = %d", q.Available(1))
	}
	// Draining with nothing queued frees the slot, clamped at the limit.
	q.Grant(1, 1, func(*core.Request) { t.Fatal("nothing queued") })
	q.Grant(1, 1, func(*core.Request) { t.Fatal("nothing queued") })
	if q.Available(1) != 1 {
		t.Fatalf("avail = %d, want clamp at 1", q.Available(1))
	}
}

func TestQueuePerDestinationIsolation(t *testing.T) {
	q := NewQueue(3, 30, 0, byteCost, nil)
	if q.Offer(req(1, 50)) {
		t.Fatal("dst 1 must queue")
	}
	if !q.Offer(req(2, 1)) {
		t.Fatal("dst 2 has free capacity; queues are per destination")
	}
}

func TestQueueAcctCounters(t *testing.T) {
	a := core.NewAcct()
	q := NewQueue(2, 0, 0, byteCost, a)
	q.Offer(req(1, 1))
	q.Grant(1, 1000, func(*core.Request) {})
	if a.Count["flow-queued"] != 1 || a.Count["flow-granted"] != 1 {
		t.Fatalf("counters = %v", a.Count)
	}
}

// A dead destination's queue is dropped and its capacity restored to the
// initial allotment — never past the slot clamp, whatever a late grant
// returns.
func TestQueueDropDstRestoresAllotment(t *testing.T) {
	slots := NewQueue(2, 1, 1, func(*core.Request) int { return 1 }, nil)
	bytes := NewQueue(2, 60, 0, byteCost, nil)
	for _, q := range []*Queue{slots, bytes} {
		q.Offer(req(1, 10))
		q.Offer(req(1, 10))
		q.Offer(req(1, 10))
		if q.QueuedLen(1) == 0 {
			t.Fatal("setup: nothing queued")
		}
		q.DropDst(1)
		q.Grant(1, 1, func(*core.Request) { t.Fatal("a dropped send shipped") })
		if q.QueuedLen(1) != 0 {
			t.Fatalf("%d sends still queued after DropDst", q.QueuedLen(1))
		}
	}
	if got := slots.Available(1); got != 1 {
		t.Errorf("slot queue: %d available after DropDst and a late grant, want the clamp 1", got)
	}
	if got := bytes.Available(1); got != 61 {
		t.Errorf("byte queue: %d available after DropDst and a 1-byte grant, want 60+1", got)
	}
}

func TestOwedPiggybackAndFlush(t *testing.T) {
	o := NewOwed(2, 100)
	if o.Add(1, 40) {
		t.Fatal("below threshold")
	}
	if got := o.Take(1); got != 40 {
		t.Fatalf("take = %d", got)
	}
	if o.Balance(1) != 0 {
		t.Fatal("take must consume the balance")
	}
	o.Add(1, 60)
	if !o.Add(1, 40) {
		t.Fatal("threshold reached, must flush")
	}
	if got := o.Take(1); got != 100 {
		t.Fatalf("take = %d", got)
	}
}

func TestOwedNoFlushWhenDisabled(t *testing.T) {
	o := NewOwed(1, 0)
	if o.Add(0, 1<<20) {
		t.Fatal("flushAt 0 means piggyback only")
	}
}

// A destination that queues and drains over and over (the Meiko's single
// envelope slot does, once per message) must reuse its queue storage: the
// head re-slice this replaced reallocated on every refill and kept granted
// requests reachable through the abandoned arrays.
func TestQueueSteadyStateDoesNotReallocate(t *testing.T) {
	q := NewQueue(2, 1, 1, func(*core.Request) int { return 1 }, nil)
	a, b := req(1, 1), req(1, 1)
	ship := func(*core.Request) {}
	cycle := func() {
		if !q.Offer(a) || q.Offer(b) {
			t.Fatal("first offer must transmit, second must queue")
		}
		q.Grant(1, 1, ship) // ships b
		q.Grant(1, 1, ship) // banks the slot
	}
	cycle()
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("%v allocations per queue/drain cycle, want 0", n)
	}
}
