package meiko

import (
	"fmt"

	"repro/internal/sim"
)

// Machine is a CS/2: a set of nodes on a flat-latency wire with hardware
// broadcast. The network model charges a per-packet wire latency plus
// per-byte serialization on the sender's injection port; each node's Elan
// is a serial resource, so co-processor occupancy queues realistically.
//
// The machine is built on whatever scheduler the world was given: node i's
// Elan and injection-port FIFOs live on its node scheduler
// (sim.Scheduler.Node), and the wire-latency hop between nodes goes through
// Route — WireLatency is the natural lookahead bound.
type Machine struct {
	Costs Costs
	Nodes []*Node
}

// NewMachine builds an n-node CS/2 for the world built on s. The wire
// latency must be at least s's lookahead or cross-node deliveries would
// land inside the epoch window.
func NewMachine(s *sim.Scheduler, n int, c Costs) *Machine {
	if sim.Duration(c.WireLatency) < s.Lookahead() {
		panic(fmt.Sprintf("meiko: wire latency %v below shard lookahead %v", c.WireLatency, s.Lookahead()))
	}
	m := &Machine{Costs: c}
	for i := 0; i < n; i++ {
		ns := s.Node(i, n)
		m.Nodes = append(m.Nodes, &Node{
			ID:   i,
			M:    m,
			S:    ns,
			Lane: ns.LaneID(),
			Elan: sim.NewFIFO(ns, fmt.Sprintf("elan%d", i)),
			Out:  sim.NewFIFO(ns, fmt.Sprintf("link%d", i)),
		})
	}
	return m
}

// Node is one CS/2 node: the SPARC is modeled by whatever proc runs the
// application; the Elan and the injection port are serial resources, both
// owned by the node's scheduler.
type Node struct {
	ID     int
	M      *Machine
	S      *sim.Scheduler     // this node's scheduler
	Lane   int                // S.LaneID(), the Route address of this node
	Elan   *sim.FIFO          // Elan co-processor occupancy
	Out    *sim.FIFO          // network injection port
	Port   *Tport             // attached tport widget, if any
	idle   sim.FreeList[xfer] // transfer-record pool (see xfer)
	Ledger *sim.Ledger        // the rank's: Out's time books as wire, Elan's as sync
}

// elan occupies the node's Elan for d, as Elan.UseAsync, and records it.
func (n *Node) elan(d sim.Duration, fn func()) {
	n.Ledger.Record(sim.Sync, d)
	n.Elan.UseAsync(d, fn)
}

// Txn models a user-level remote transaction carrying nbytes of payload to
// node dst: serialization on the source port, wire latency, then deliver
// runs after the destination Elan processes the transaction. The caller is
// responsible for charging the SPARC-side issue cost (Costs.TxnIssue) when
// issued from a process; Elan-issued transactions instead occupy the source
// Elan first (elanIssued).
//
// Txn is safe to call from event context; delivery order between a given
// (src, dst) pair is FIFO because packets serialize on the source port and
// experience identical latency.
func (n *Node) Txn(dst int, nbytes int, elanIssued bool, deliver func()) {
	c := &n.M.Costs
	x := n.getXfer(dst, nbytes, c.TxnPerByte, c.ElanTxnHandle)
	x.onRemote = deliver
	if elanIssued {
		n.elan(c.ElanTxnHandle, x.step)
	} else {
		x.run()
	}
}

// DMA models an Elan-driven bulk transfer of nbytes to node dst. The Elan
// sets up the transfer, the payload serializes on the injection port at DMA
// bandwidth, and after the wire latency the destination Elan lands it.
// onLocal fires when the last byte leaves the source (the sender's buffer
// is then reusable); onRemote fires when the destination Elan completes.
// Either callback may be nil. Safe to call from event context.
func (n *Node) DMA(dst int, nbytes int, onLocal, onRemote func()) {
	c := &n.M.Costs
	x := n.getXfer(dst, nbytes, c.DMAPerByte, c.ElanDMARecv)
	if onRemote == nil {
		onRemote = noCompletion // the landing is still an event
	}
	x.onLocal, x.onRemote = onLocal, onRemote
	n.elan(c.ElanDMASetup, x.step)
}

func noCompletion() {}

// xfer is one transaction or DMA in flight: the state its chain of events
// — source Elan (when it issues), injection port, wire, destination Elan —
// carries from issue to completion. The chain is one func, step, bound to
// the record once and re-armed at every hop, so a transfer schedules
// without allocating. Records are pooled per node: drawn from the source's
// pool and, because the last two hops run on the destination's lane,
// returned to the destination's — traffic flows both ways (every envelope
// is answered by a slot-free or an ack), so the pools stay balanced, and the
// list's bound caps the one that would not.
type xfer struct {
	src, dst *Node
	nbytes   int
	perByte  sim.Duration // serialization rate on the injection port
	land     sim.Duration // destination Elan occupancy
	stage    uint8
	onLocal  func()
	onRemote func() // nil: the destination Elan is occupied but no completion event runs
	step     func() // x.run, bound once
}

// The hop step runs next. Every record starts at xferInject: an
// Elan-issued transfer reaches it through the source Elan's queue, a
// SPARC-issued transaction runs it at once.
const (
	xferInject = iota // serialize on the source injection port
	xferDepart        // last byte left: cross the wire
	xferLand          // arrived: occupy the destination Elan
	xferDone          // landed: complete
)

func (n *Node) getXfer(dst, nbytes int, perByte, land sim.Duration) *xfer {
	x := n.idle.Get()
	if x == nil {
		x = &xfer{}
		x.step = x.run
	}
	x.src, x.dst, x.nbytes, x.perByte, x.land = n, n.M.Nodes[dst], nbytes, perByte, land
	x.stage = xferInject
	return x
}

// run executes the transfer's next hop. Up to xferDepart it runs on the
// source's lane; the wire hop hands the record to the destination's.
func (x *xfer) run() {
	switch x.stage {
	case xferInject:
		wire := sim.Duration(x.nbytes) * x.perByte
		x.src.Ledger.Record(sim.Wire, wire)
		if x.onLocal == nil {
			// Nothing waits for the last byte to leave (every Txn): the
			// port is booked at issue and the landing routed from here,
			// to the instant the departure event would have routed it to.
			x.stage = xferLand
			end := x.src.Out.UseAsync(wire, nil)
			x.src.S.Route(x.dst.Lane, end+sim.Time(x.src.M.Costs.WireLatency), x.step)
			return
		}
		x.stage = xferDepart
		x.src.Out.UseAsync(wire, x.step)
	case xferDepart:
		if x.onLocal != nil {
			x.onLocal()
		}
		// The flat wire hop: the serialization is paid on the port, so
		// only the latency remains, and the route to the destination's
		// lane hands the record over.
		x.stage = xferLand
		x.src.S.RouteAfter(x.dst.Lane, x.src.M.Costs.WireLatency, x.step)
	case xferLand:
		if x.onRemote == nil {
			x.dst.elan(x.land, nil)
			x.recycle()
			return
		}
		x.stage = xferDone
		x.dst.elan(x.land, x.step)
	case xferDone:
		// Recycled before the completion runs, so a completion that issues
		// the reply reuses this record.
		x.recycle()()
	}
}

// recycle returns x to the destination node's pool (destination lane
// context) and reports the completion callback it carried.
func (x *xfer) recycle() (done func()) {
	n := x.dst
	done = x.onRemote
	x.src, x.dst, x.onLocal, x.onRemote = nil, nil, nil, nil
	n.idle.Put(x)
	return done
}

// Broadcast models the CS/2 hardware broadcast: one injection of nbytes
// fans out to every other node, with a small per-destination skew in the
// switches. deliver runs once per destination node (in id order, skewed);
// onLocal fires when the source has injected the payload.
func (n *Node) Broadcast(nbytes int, onLocal func(), deliver func(dst *Node)) {
	c := n.M.Costs
	n.elan(c.ElanDMASetup, func() {
		wire := sim.Duration(nbytes) * c.DMAPerByte
		n.Ledger.Record(sim.Wire, wire)
		n.Out.UseAsync(wire, func() {
			if onLocal != nil {
				onLocal()
			}
			skew := sim.Duration(0)
			for _, d := range n.M.Nodes {
				if d.ID == n.ID {
					continue
				}
				dst := d
				// The fan-out hop leaves the source node: route to each
				// destination's lane (a local timer when unsharded).
				n.S.RouteAfter(dst.Lane, c.WireLatency+skew, func() {
					dst.elan(c.ElanDMARecv, func() { deliver(dst) })
				})
				skew += c.BcastPerNode
			}
		})
	})
}

// Event is an Elan event word: device completions set it, the SPARC waits
// on it. Waiting charges the SPARC/Elan synchronization cost on wakeup,
// modeling the handshake the paper identifies as extra latency when the
// Elan performs background matching.
type Event struct {
	s    *sim.Scheduler
	c    Costs
	set  bool
	cond *sim.Cond
}

// NewEvent returns an unset event owned by n's scheduler, so waits and
// device completions stay lane-local.
func (n *Node) NewEvent() *Event {
	return &Event{s: n.S, c: n.M.Costs, cond: sim.NewCond(n.S)}
}

// Set marks the event and wakes waiters. Safe from event context.
func (e *Event) Set() {
	e.set = true
	e.cond.Broadcast()
}

// Wait parks p until the event is set, charging the SPARC<->Elan sync cost
// if the proc actually had to block and be woken by the Elan.
func (e *Event) Wait(p *sim.Proc) {
	if e.set {
		return
	}
	for !e.set {
		e.cond.Wait(p)
	}
	p.Spend(sim.Sync, e.c.ElanSync)
}
