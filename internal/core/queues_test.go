package core

import "testing"

// sockHeader is the socket wires' 25-byte header (flow.HeaderBytes), which
// their eager sends charge on top of the payload.
const sockHeader = 25

func queued(dst, count int) *Request {
	return NewRequest(false, Envelope{Dest: dst, Count: count}, nil)
}

// byteCost mimics the cluster: header+payload bytes for eager traffic,
// nothing for a rendezvous envelope (count above the 100-byte threshold).
func byteCost(r *Request) int {
	if r.Env.Count > 100 {
		return 0
	}
	return sockHeader + r.Env.Count
}

func TestQueueImmediateWhenCapacityFree(t *testing.T) {
	q := NewSendQueue(2, 1000, 0, byteCost, nil)
	if !q.Offer(queued(1, 50)) {
		t.Fatal("offer with free capacity must transmit immediately")
	}
	if got := q.Available(1); got != 1000-sockHeader-50 {
		t.Fatalf("available = %d", got)
	}
}

func TestQueueBlocksAndDrainsInIssueOrder(t *testing.T) {
	q := NewSendQueue(2, 60, 0, byteCost, nil)
	a, b, c := queued(1, 50), queued(1, 200), queued(1, 10)
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
	var shipped []*Request
	q.Grant(1, 20, func(r *Request) { shipped = append(shipped, r) })
	// 80 units: a (75) clears, then b (0), then c needs 35 > 5 left.
	if len(shipped) != 2 || shipped[0] != a || shipped[1] != b {
		t.Fatalf("shipped %d messages, want a then b", len(shipped))
	}
	q.Grant(1, 100, func(r *Request) { shipped = append(shipped, r) })
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
	slot := func(*Request) int { return 1 }
	q := NewSendQueue(2, 1, 1, slot, nil)
	if !q.Offer(queued(1, 5)) {
		t.Fatal("first envelope owns the slot")
	}
	b := queued(1, 6)
	if q.Offer(b) {
		t.Fatal("second envelope must wait for the slot")
	}
	var shipped []*Request
	q.Grant(1, 1, func(r *Request) { shipped = append(shipped, r) })
	if len(shipped) != 1 || shipped[0] != b {
		t.Fatal("freed slot must be reused by the queued envelope")
	}
	if q.Available(1) != 0 {
		t.Fatalf("slot must be busy again, avail = %d", q.Available(1))
	}
	// Draining with nothing queued frees the slot, clamped at the limit.
	q.Grant(1, 1, func(*Request) { t.Fatal("nothing queued") })
	q.Grant(1, 1, func(*Request) { t.Fatal("nothing queued") })
	if q.Available(1) != 1 {
		t.Fatalf("avail = %d, want clamp at 1", q.Available(1))
	}
}

func TestQueuePerDestinationIsolation(t *testing.T) {
	q := NewSendQueue(3, 30, 0, byteCost, nil)
	if q.Offer(queued(1, 50)) {
		t.Fatal("dst 1 must queue")
	}
	if !q.Offer(queued(2, 1)) {
		t.Fatal("dst 2 has free capacity; queues are per destination")
	}
}

func TestQueueAcctCounters(t *testing.T) {
	a := NewAcct()
	q := NewSendQueue(2, 0, 0, byteCost, a)
	q.Offer(queued(1, 1))
	q.Grant(1, 1000, func(*Request) {})
	if v := a.View(); v.Count["flow-queued"] != 1 || v.Count["flow-granted"] != 1 {
		t.Fatalf("counters = %v", v.Count)
	}
}

// A dead destination's queue is dropped and its capacity restored to the
// initial allotment — never past the slot clamp, whatever a late grant
// returns.
func TestQueueDropDstRestoresAllotment(t *testing.T) {
	slots := NewSendQueue(2, 1, 1, func(*Request) int { return 1 }, nil)
	bytes := NewSendQueue(2, 60, 0, byteCost, nil)
	for _, q := range []*SendQueue{slots, bytes} {
		q.Offer(queued(1, 10))
		q.Offer(queued(1, 10))
		q.Offer(queued(1, 10))
		if q.QueuedLen(1) == 0 {
			t.Fatal("setup: nothing queued")
		}
		q.DropDst(1)
		q.Grant(1, 1, func(*Request) { t.Fatal("a dropped send shipped") })
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

// A destination that queues and drains over and over (the Meiko's single
// envelope slot does, once per message) must reuse its queue storage: the
// head re-slice this replaced reallocated on every refill and kept granted
// requests reachable through the abandoned arrays.
func TestQueueSteadyStateDoesNotReallocate(t *testing.T) {
	q := NewSendQueue(2, 1, 1, func(*Request) int { return 1 }, nil)
	a, b := queued(1, 1), queued(1, 1)
	ship := func(*Request) {}
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
