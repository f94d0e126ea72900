package atm

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// MediumKind selects the wire below the protocol stack.
type MediumKind int

const (
	OverEthernet MediumKind = iota
	OverATM
)

func (k MediumKind) String() string {
	if k == OverEthernet {
		return "eth"
	}
	return "atm"
}

// DeliverOpts qualifies one link-layer packet.
type DeliverOpts struct {
	AAL34     bool // ATM only: AAL3/4 cells instead of AAL5
	Droppable bool // may be lost per the medium's loss rate (datagram traffic)
}

// Medium carries link-layer packets between hosts, charging wire and
// driver time on the way. Event-context safe; delivery between a fixed
// (src, dst) pair is FIFO.
type Medium interface {
	Kind() MediumKind
	MTU() int
	// Deliver carries n payload bytes from src to dst and runs deliver at
	// the destination after wire, NIC, and driver time. It returns how many
	// times deliver will run: 0 when the fault layer drops or cuts the
	// packet, 2 when it duplicates it, 1 otherwise. deliver never runs
	// before Deliver returns, so a caller that sums the counts knows when
	// the last copy has landed — which is what lets droppable traffic
	// recycle its records (DESIGN §9).
	Deliver(src, dst, n int, opts DeliverOpts, deliver func()) int
}

// Ethernet is the 10 Mbit/s shared medium: every frame from every host
// serializes on one wire, which is what makes the cluster's Figure 9 lose
// to ATM under contention. Loss and other faults are not modeled here: the
// Injector wrapping every medium (faults.go) owns misbehavior.
//
// The segment is a world-global resource, so it is built as a sim.Stage
// homed on the world's scheduler: every Deliver detours to the home lane
// carrying its source stamp, and the wire's arbiter reserves it backdated
// to the stamp, in (stamp, source host) order, then routes the frame out to
// the destination's lane. On a standalone scheduler the detour is inline,
// so the contention arithmetic is the same either way.
type Ethernet struct {
	s     *sim.Scheduler
	n     int // hosts, for placing src/dst on their node schedulers
	c     Costs
	stage *sim.Stage
	wire  *portArbiter

	ledgers []*sim.Ledger // see Cluster.Ledgers
}

// NewEthernet builds the shared segment for n hosts, homed on s. The
// model's spans bound s's lookahead: the minimum frame wire time covers the
// stamp-to-flush window (the detour plus one arbitration window), and the
// propagation+driver tail covers the completion-to-delivery hop, so both
// must be at least the lookahead. Frames book their serialization in
// ledgers, one entry per host.
func NewEthernet(s *sim.Scheduler, n int, c Costs, ledgers []*sim.Ledger) *Ethernet {
	minSpan := sim.Duration(FrameWireBytes(0)) * c.EthPerByte
	post := c.EthPropDelay + c.DriverEthPerFrame
	if la := s.Lookahead(); minSpan < la+portArbDelay || post < la {
		panic(fmt.Sprintf("ethernet: frame span %v / delivery tail %v below shard lookahead %v", minSpan, post, la))
	}
	return &Ethernet{s: s, n: n, c: c, stage: sim.NewStage(s), wire: newPortArbiter(s, "ether", s.Lookahead()), ledgers: ledgers}
}

// Kind implements Medium.
func (e *Ethernet) Kind() MediumKind { return OverEthernet }

// MTU implements Medium.
func (e *Ethernet) MTU() int { return EthMTU }

// FrameWireBytes reports the wire occupancy of an n-byte frame payload.
func FrameWireBytes(n int) int {
	if n < EthMinPayload {
		n = EthMinPayload
	}
	return n + EthOverheadBytes
}

// Deliver implements Medium. Must be called from src's lane context;
// deliver runs on dst's lane.
func (e *Ethernet) Deliver(src, dst, n int, opts DeliverOpts, deliver func()) int {
	if n > EthMTU {
		panic(fmt.Sprintf("ethernet: frame payload %d exceeds MTU", n))
	}
	wire := sim.Duration(FrameWireBytes(n)) * e.c.EthPerByte
	e.ledgers[src].Record(sim.Wire, wire)
	e.stage.Request(e.s.Node(src, e.n), func(t0 sim.Time) {
		e.wire.enqueue(t0, src, wire, 0, func() {
			e.stage.Exit(e.s.Node(dst, e.n).LaneID(), e.s.Now()+sim.Time(e.c.EthPropDelay+e.c.DriverEthPerFrame), deliver)
		})
	})
	return 1
}

// ATMNet is the switched ATM fabric: a dedicated 155 Mbit/s full-duplex
// link per host into a ForeRunner ASX-200, which forwards cells to the
// destination port. Uplinks and downlinks are independent resources, so
// there is no cross-host contention except at a shared destination port.
//
// Because every per-host resource (uplink, downlink, NIC time) belongs to
// exactly one host, the fabric shards cleanly: host i's FIFOs live on its
// node scheduler, and the switch-forwarding hop — the only point where a
// packet leaves its source host — goes through Route, with SwitchDelay as
// the lookahead bound. The shared Ethernet segment serializes all hosts on
// one wire and is a sim.Stage instead.
type ATMNet struct {
	s       *sim.Scheduler
	c       Costs
	up      []*sim.FIFO
	down    []*portArbiter      // per-host downlink, behind its switch port's arbiter
	idle    []sim.FreeList[hop] // per-host switch-hop record pools (see hop)
	ledgers []*sim.Ledger       // see Cluster.Ledgers
}

// NewATMNet builds the switch with n host ports for the world built on s.
// The switch forwarding delay must be at least s's lookahead (it is the
// only cross-lane hop). Cells book their serialization as on NewEthernet.
func NewATMNet(s *sim.Scheduler, n int, c Costs, ledgers []*sim.Ledger) *ATMNet {
	if c.SwitchDelay < s.Lookahead() {
		panic(fmt.Sprintf("atm: switch delay %v below shard lookahead %v", c.SwitchDelay, s.Lookahead()))
	}
	a := &ATMNet{s: s, c: c, idle: make([]sim.FreeList[hop], n), ledgers: ledgers}
	for i := 0; i < n; i++ {
		hs := s.Node(i, n)
		a.up = append(a.up, sim.NewFIFO(hs, fmt.Sprintf("atm-up%d", i)))
		a.down = append(a.down, newPortArbiter(hs, fmt.Sprintf("atm-down%d", i), 0))
	}
	return a
}

// portArbiter serializes one shared resource — an ATM destination port's
// downlink, the Ethernet segment — with a fixed arbitration order. When two
// requests for the resource are stamped at the same virtual instant, which
// one wins decides both their delivery order and their queueing delays.
// Event execution order at equal timestamps is a kernel artifact —
// insertion order on a standalone scheduler, the (lane, sequence) merge on
// a shard — so reserving the FIFO directly in arrival order would let the
// two drivers resolve the tie differently. Instead requests buffer for one
// sub-frame arbitration window and reserve in (stamp, source host) order,
// the ASX-200's fixed port priority: reservations are backdated to their
// stamps (FIFO.ReserveAt), so untied traffic keeps bit-identical timing and
// tied requests get one canonical winner under both.
//
// Every request reaches the arbiter detour after its stamp (0 at an ATM
// port, where the stamp is the switch-hop arrival; the shard lookahead at
// the Ethernet's home lane, where the stamp is the sender's), so a flush
// at F decides the requests stamped before F-detour: exactly those that
// arrived before F, on every kernel.
type portArbiter struct {
	s       *sim.Scheduler // the lane that owns the resource
	fifo    *sim.FIFO
	detour  sim.Time
	pending []portReq
	batch   []portReq // flush's scratch, empty between flushes
	flush   func()    // q.run, bound once
	flushAt sim.Time  // scheduled flush; zero when none pending
}

type portReq struct {
	stamp   sim.Time
	src     int
	wire    sim.Duration
	tail    sim.Duration // processing between the end of the reservation and deliver
	deliver func()
}

// portArbDelay is the arbitration window. Added to the detour it must stay
// below the resource's minimum occupancy (one cell, ~2.8 µs, on a downlink;
// a minimum frame on the Ethernet) so reservations are always booked
// before their completion events fire.
const portArbDelay sim.Duration = 100 // ns

func newPortArbiter(s *sim.Scheduler, name string, detour sim.Duration) *portArbiter {
	q := &portArbiter{s: s, fifo: sim.NewFIFO(s, name), detour: sim.Time(detour)}
	q.flush = q.run
	return q
}

// enqueue registers a request stamped at stamp by host src. Runs on q's
// lane, detour after stamp.
func (q *portArbiter) enqueue(stamp sim.Time, src int, wire, tail sim.Duration, deliver func()) {
	q.pending = append(q.pending, portReq{stamp: stamp, src: src, wire: wire, tail: tail, deliver: deliver})
	if q.flushAt == 0 {
		q.flushAt = q.s.Now() + sim.Time(portArbDelay)
		q.s.At(q.flushAt, q.flush)
	}
}

// run is the flush: it reserves the resource for every request that
// arrived strictly before now, in (stamp, src) order. Requests arriving
// exactly at the flush instant wait for the next window — they may land in
// the pending list before or after this event depending on kernel
// tie-breaking, so deciding them here would reintroduce the ambiguity the
// arbiter removes.
func (q *portArbiter) run() {
	now := q.s.Now()
	q.flushAt = 0
	batch := q.batch[:0]
	rest := q.pending[:0]
	for _, r := range q.pending {
		if r.stamp < now-q.detour {
			batch = append(batch, r)
		} else {
			rest = append(rest, r)
		}
	}
	clear(q.pending[len(rest):]) // so does the compacted tail
	q.pending = rest
	slices.SortStableFunc(batch, func(x, y portReq) int {
		return cmp.Or(cmp.Compare(x.stamp, y.stamp), cmp.Compare(x.src, y.src))
	})
	for _, r := range batch {
		end := q.fifo.ReserveAt(r.stamp, r.wire)
		q.s.At(end+sim.Time(r.tail), r.deliver)
	}
	clear(batch) // the scratch must not pin delivery closures (and their frames)
	q.batch = batch[:0]
	if len(q.pending) > 0 && q.flushAt == 0 {
		q.flushAt = now + sim.Time(portArbDelay)
		q.s.At(q.flushAt, q.flush)
	}
}

func (a *ATMNet) schedOf(host int) *sim.Scheduler { return a.s.Node(host, len(a.up)) }

// Kind implements Medium.
func (a *ATMNet) Kind() MediumKind { return OverATM }

// MTU implements Medium (Classical IP over ATM).
func (a *ATMNet) MTU() int { return ATMMTU }

// Deliver implements Medium. Must be called from src's lane context.
func (a *ATMNet) Deliver(src, dst, n int, opts DeliverOpts, deliver func()) int {
	wireBytes := AAL5WireBytes(n)
	if opts.AAL34 {
		wireBytes = AAL34WireBytes(n)
	}
	// Outbound SAR on the i960; inbound SAR plus the STREAMS driver.
	a.send(src, dst, sim.Duration(wireBytes)*a.c.ATMPerByte,
		a.c.I960PerPacket, a.c.I960PerPacket+a.c.DriverATMPerFrame, deliver)
	return 1
}

// send is the fabric's one packet path, shared by the kernel stacks
// (Deliver) and the U-Net endpoint, which differ only in their NIC costs:
// out of outbound segmentation, the uplink for wire, the switch hop, then
// the destination port arbiter, which reserves the downlink (backdated to
// the switch-hop arrival) and runs deliver on dst's lane tail after the
// serialization completes. Must be called from src's lane context.
//
// The uplink is private to src, and every reservation on it is made here
// with stamp now+out, so stamps are monotone in call order as long as one
// host's traffic all pays the same out (a world runs the kernel stacks or
// U-Net, never both): booking the uplink at call time is what a timer at
// now+out followed by a reservation would book, two events later. The
// switch hop lands at least SwitchDelay ahead, so routing it from here is
// lane-safe, and nothing downstream depends on when it was scheduled — the
// arbiter orders arrivals by (stamp, src), not by event order.
func (a *ATMNet) send(src, dst int, wire, out, tail sim.Duration, deliver func()) {
	ss := a.schedOf(src)
	end := a.up[src].ReserveAt(ss.Now()+sim.Time(out), wire)
	a.ledgers[src].Record(sim.Wire, wire)
	h := a.idle[src].Get()
	if h == nil {
		h = &hop{a: a}
		h.step = h.arrive
	}
	h.src, h.dst, h.wire, h.tail, h.deliver = src, dst, wire, tail, deliver
	ss.Route(a.schedOf(dst).LaneID(), end+sim.Time(a.c.SwitchDelay), h.step)
}

// hop is one packet crossing the switch: what its arrival event at the
// destination port needs. The event is one func, step, bound to the record
// once, so a packet crosses without allocating. Records are pooled per
// host: drawn from the source's pool and, because the arrival runs on the
// destination's lane, returned to the destination's — traffic flows both
// ways (TCP answers every segment with window updates, RUDP with acks), so
// the pools stay balanced, and the list's bound caps the one that would not.
type hop struct {
	a        *ATMNet
	src, dst int
	wire     sim.Duration
	tail     sim.Duration
	deliver  func()
	step     func() // h.arrive, bound once
}

// arrive hands the packet to dst's port arbiter and recycles the record.
// Runs on dst's lane.
func (h *hop) arrive() {
	a, dst := h.a, h.dst
	q := a.down[dst]
	q.enqueue(q.s.Now(), h.src, h.wire, h.tail, h.deliver)
	h.deliver = nil
	a.idle[dst].Put(h)
}
