package meiko

import (
	"repro/internal/core"
	"repro/internal/meiko"
	"repro/internal/sim"
)

// envelopeTxnBytes is the control payload of a low-latency envelope
// transaction (the engine envelope serialized into the transaction).
const envelopeTxnBytes = 20

// ctrlTxnBytes is a small control transaction (CTS, slot-free, sync ack).
const ctrlTxnBytes = 8

// slotPollCost is the SPARC cost to scan the arrival slots in Poll.
const slotPollCost = 6000 // ns

// lowlatTransport implements core.Transport on raw Meiko transactions and
// DMAs — the paper's low-latency device. Eager messages ride a single
// transaction into the receiver's preallocated per-sender envelope slot
// (one outstanding message per (sender, receiver) pair, §4.1); larger
// messages announce themselves with an envelope transaction and move by a
// sender-Elan DMA once the receiver matches — with no SPARC involvement at
// the sender after the CTS, unlike the cluster port.
type lowlatTransport struct {
	m    *meiko.Machine
	node *meiko.Node
	eng  *core.Engine
	max  int
	all  []*lowlatTransport // indexed by rank

	// Envelopes and control packets land in inbox and surface through
	// Poll; a slot-free is a PktCredit the receiving Elan consumes.
	inbox    core.Inbox
	rndvIdle sim.FreeList[rndv] // rendezvous pool (see rndv)

	// Envelope-slot flow control: at most EnvelopeSlots outstanding
	// envelopes per destination (the paper allocates exactly one, §4.1),
	// each envelope — eager or rendezvous — costing one slot, with queued
	// successors held in issue order.
	fc *core.SendQueue

	// Hardware-broadcast state.
	bcSeq   int    // last broadcast sequence delivered here
	bcData  []byte // payload of that broadcast
	bcCond  *sim.Cond
	bcReady int // ready tokens collected (when acting as root)
}

func newLowlatTransport(m *meiko.Machine, node *meiko.Node, eng *core.Engine, eager, slots int, all []*lowlatTransport) *lowlatTransport {
	if slots < 1 {
		slots = 1
	}
	t := &lowlatTransport{
		m:      m,
		node:   node,
		eng:    eng,
		max:    eager,
		all:    all,
		bcCond: sim.NewCond(node.S),
	}
	t.inbox.Init(eng, t)
	t.fc = core.NewSendQueue(len(all), slots, slots,
		func(*core.Request) int { return 1 }, eng.Acct())
	return t
}

var _ core.Transport = (*lowlatTransport)(nil)

// MaxEager implements core.Transport.
func (t *lowlatTransport) MaxEager() int { return t.max }

// ship sends pkt to rank dst in one transaction of nbytes, on a flight of
// this rank's inbox: an envelope or control packet lands in the
// destination's slot area and surfaces through its Poll, a slot-free
// acknowledgement goes to its Elan. Every envelope is answered by a
// slot-free the other way, which keeps the inboxes' pools balanced.
func (t *lowlatTransport) ship(dst, nbytes int, pkt core.Packet) {
	t.node.Txn(dst, nbytes, false, t.inbox.Flight(&t.all[dst].inbox, pkt))
}

// Send implements core.Transport. Every envelope — eager or rendezvous —
// occupies the destination's single envelope slot (§4.1's per-sender slot),
// which also totally orders the pair's envelopes; when the slot is busy the
// message queues in the send queue and is transmitted, in issue order, as
// slot-free acknowledgements return.
func (t *lowlatTransport) Send(p *sim.Proc, req *core.Request) {
	if !t.fc.Offer(req) {
		return
	}
	t.eng.Acct().Charge(p, core.CostProtocol, t.m.Costs.TxnIssue)
	t.transmit(req)
}

// transmit ships one envelope (proc or event context); the slot for
// req.Env.Dest must already be held.
func (t *lowlatTransport) transmit(req *core.Request) {
	if req.Err() != nil {
		// Failed while queued on the envelope slot — the destination died
		// (or this rank turned fatal). Done() is the wrong guard: a
		// buffered send completes at Isend time yet must still ship.
		return
	}
	env := req.Env
	dst := env.Dest
	if env.Count > t.max {
		t.eng.Acct().Incr("rndv", 1)
		t.ship(dst, envelopeTxnBytes, core.Packet{Kind: core.PktRTS, Env: env})
		// The envelope slot frees when the receiver consumes the RTS
		// (see Poll); local completion comes with the DMA.
		return
	}
	t.eng.Acct().Incr("eager", 1)
	// The per-sender envelope slot is modeled by a bounce buffer: the
	// receiving engine recycles it after the copy-out that frees the slot.
	data, pool := t.eng.Bounce(t.all[dst].eng, req.Buf)
	t.ship(dst, envelopeTxnBytes+len(data), core.Packet{Kind: core.PktEager, Env: env, Data: data, Pool: pool})
	t.eng.SendDone(req)
}

// rndv is one rendezvous after the receiver matched its RTS: the CTS
// transaction to the sender's Elan, then the payload DMA back. Its three
// steps are bound once per record, so the paper's direct-DMA path
// allocates nothing: cts runs on the sender's lane when the CTS lands,
// sent when the DMA's last byte leaves the sender, land on the receiver's
// lane when the DMA completes. A record is drawn from the receiver's list
// and returned to it on landing — or, when the CTS finds the send already
// failed, to the sender's list on the sender's lane, and no DMA starts.
type rndv struct {
	recv, send *lowlatTransport
	req        *core.Request // the matched receive
	sreq       *core.Request // the send the CTS resolved (sender's lane, until sent)
	env        core.Envelope
	n          int    // bytes the DMA moves: the message, cut to the receive buffer
	data       []byte // the payload's bounce copy (see Engine.Bounce)

	cts, sent, land func() // r.clearToSend, r.departed, r.landed, bound once
}

// Accept implements core.Transport: the receiver matched an RTS. The CTS
// transaction goes back to the sender's Elan, which starts the payload DMA
// autonomously — the sending SPARC never runs.
func (t *lowlatTransport) Accept(p *sim.Proc, msg *core.InMsg, req *core.Request) {
	t.eng.Acct().Charge(p, core.CostProtocol, t.m.Costs.TxnIssue)
	r := t.rndvIdle.Get()
	if r == nil {
		r = &rndv{}
		r.cts, r.sent, r.land = r.clearToSend, r.departed, r.landed
	}
	r.recv, r.send, r.req, r.env = t, t.all[msg.Env.Source], req, msg.Env
	r.n = min(msg.Env.Count, len(req.Buf))
	t.node.Txn(msg.Env.Source, ctrlTxnBytes, false, r.cts)
}

// clearToSend runs on the sender's lane when the CTS lands. The CTS implies
// the receiver matched: synchronous-mode sends are acknowledged here, since
// the engine never sees the CTS. A send a fault failed meanwhile no longer
// resolves, and nothing moves. Otherwise the payload is copied out while
// the send still owns its buffer — the landing runs on the receiver's lane,
// after SendDone has handed the buffer back — and the DMA starts.
func (r *rndv) clearToSend() {
	s := r.send
	if r.sreq = s.eng.SendAcked(r.env.SendID); r.sreq == nil {
		s.recycleRndv(r)
		return
	}
	r.data, _ = s.eng.Bounce(r.recv.eng, r.sreq.Buf[:r.n])
	s.node.DMA(r.recv.eng.Rank(), r.n, r.sent, r.land)
}

// departed runs on the sender's lane when the DMA's last byte has left.
func (r *rndv) departed() {
	r.send.eng.SendDone(r.sreq)
	r.sreq = nil
}

// landed runs on the receiver's lane when the DMA completes.
func (r *rndv) landed() {
	t := r.recv
	copy(r.req.Buf, r.data)
	t.eng.Pool().Put(r.data)
	t.eng.RecvDataDone(r.req, r.env)
	t.recycleRndv(r)
}

// recycleRndv returns a finished rendezvous to this rank's pool.
func (t *lowlatTransport) recycleRndv(r *rndv) {
	r.recv, r.send, r.req, r.sreq, r.env, r.n, r.data = nil, nil, nil, nil, core.Envelope{}, 0, nil
	t.rndvIdle.Put(r)
}

// SendPayload implements core.Transport. CTS packets never surface to the
// engine on this platform (the Elan consumes them), so this is never
// reached.
func (t *lowlatTransport) SendPayload(p *sim.Proc, req *core.Request, pkt *core.Packet) {
}

// Control implements core.Transport (synchronous-mode acks).
func (t *lowlatTransport) Control(p *sim.Proc, dst int, kind core.PacketKind, env core.Envelope) {
	c := t.m.Costs
	t.eng.Acct().Charge(p, core.CostProtocol, c.TxnIssue)
	t.ship(dst, ctrlTxnBytes, core.Packet{Kind: kind, Env: env, ReqID: env.SendID})
}

// Release implements core.Transport. The envelope slot was already
// returned when Poll copied the message out of the slot area (the paper's
// design: the library buffers data temporarily at the receiver, and the
// per-sender slot holds only the newest envelope), so consuming the bounce
// copy needs no further transport action.
func (t *lowlatTransport) Release(p *sim.Proc, src int, n int) {}

// PeerDown implements core.Transport: restore the envelope slots the dead
// rank held, since a corpse never returns slot-free acknowledgements.
func (t *lowlatTransport) PeerDown(rank int) {
	t.fc.DropDst(rank)
	t.eng.Wake()
	// Procs parked in the hardware-broadcast slot wait recheck the dead
	// set once woken (see HWBcast).
	t.bcCond.Broadcast()
}

// FatalWake wakes procs parked on transport-owned conditions when this
// rank's own engine turns fatal, so a killed process fails out of the
// hardware broadcast instead of sleeping forever.
func (t *lowlatTransport) FatalWake() { t.bcCond.Broadcast() }

// CreditReturned implements core.CreditSink: it runs at the sender (event
// context) when a slot-free transaction from rank dst lands, returning n
// slots, and the send queue either reuses a slot at once for the queued
// successor or banks it.
func (t *lowlatTransport) CreditReturned(dst, n int) {
	shipped := false
	t.fc.Grant(dst, n, func(req *core.Request) {
		shipped = true
		t.transmit(req)
	})
	if !shipped {
		t.eng.Wake()
	}
}

// Poll implements core.Transport: scan the slot area for the next
// arrival. Consuming any envelope — eager payload copied to the library's
// buffer, or a rendezvous announcement read out — frees the sender's slot
// with a small acknowledgement transaction, so the pair's next envelope
// may travel while this message waits (possibly unmatched) in the
// unexpected queue.
func (t *lowlatTransport) Poll(p *sim.Proc) *core.Packet {
	if t.inbox.Len() == 0 {
		return nil
	}
	t.eng.Acct().Charge(p, core.CostProtocol, slotPollCost)
	pkt := t.inbox.Poll()
	switch pkt.Kind {
	case core.PktEager, core.PktRTS:
		t.eng.Acct().Charge(p, core.CostProtocol, t.m.Costs.TxnIssue)
		slotFree := core.Envelope{Source: t.eng.Rank(), Count: 1}
		t.ship(pkt.Env.Source, ctrlTxnBytes, core.Packet{Kind: core.PktCredit, Env: slotFree})
	}
	return pkt
}

// Pending implements core.Transport.
func (t *lowlatTransport) Pending() bool { return t.inbox.Len() > 0 }

// ------------------------------------------------------------ RemoteMemory --
//
// One-sided operations map straight onto the Elan primitives the paper's
// §4 device exposes: a small put is one remote transaction into the
// target's registered region, a large put is a sender-Elan DMA, and in
// both cases the target's Elan — never its SPARC — applies the bytes and
// fires the completion acknowledgement back, so the target process does
// not need to be inside an MPI call for the transfer to complete.

// rmaTxnHdrBytes is the one-sided header riding each RMA transaction or
// DMA announcement: window id, offset, and length.
const rmaTxnHdrBytes = 16

var _ core.RemoteMemory = (*lowlatTransport)(nil)

// RMAWrite implements core.RemoteMemory for puts (op RMAReplace) and
// accumulates alike — the target Elan's handler stores or combines: small
// payloads ride one remote transaction, large ones a sender-Elan DMA. The
// target Elan lands the bytes (target lane event context) and acks back to
// the origin itself (elanIssued: no SPARC wakeup), firing done on the
// origin lane.
func (t *lowlatTransport) RMAWrite(p *sim.Proc, dst, win, off int, data []byte, op core.RMAOp, done func()) {
	c := t.m.Costs
	me := t.eng.Rank()
	peer := t.all[dst]
	// Snapshot the payload on the origin lane. Remote applies run in the
	// target lane's event context, concurrent (same epoch) with origin-lane
	// events, so the transfer must never share mutable storage across
	// lanes; same-lane transfers keep the copy too — it is the modeled
	// Elan's copy of the data leaving host memory.
	snap := make([]byte, len(data))
	copy(snap, data)
	apply := func() {
		peer.eng.Win(win).ApplyAccumulate(off, snap, op)
		peer.node.Txn(me, ctrlTxnBytes, true, done)
	}
	if len(snap) <= t.max {
		t.eng.Acct().Charge(p, core.CostProtocol, c.TxnIssue)
		t.node.Txn(dst, rmaTxnHdrBytes+len(snap), false, apply)
		return
	}
	t.eng.Acct().Charge(p, core.CostProtocol, c.DMAIssue)
	t.node.DMA(dst, rmaTxnHdrBytes+len(snap), func() {}, apply)
}

// RMARead implements core.RemoteMemory: a request transaction reaches the
// target's Elan, which reads the region and DMAs the bytes back; the
// landing event on the origin lane fills buf and completes the operation.
func (t *lowlatTransport) RMARead(p *sim.Proc, dst, win, off int, buf []byte, done func()) {
	c := t.m.Costs
	me := t.eng.Rank()
	peer := t.all[dst]
	t.eng.Acct().Charge(p, core.CostProtocol, c.TxnIssue)
	t.node.Txn(dst, rmaTxnHdrBytes, false, func() {
		snap := make([]byte, len(buf))
		peer.eng.Win(win).ReadInto(off, snap)
		peer.node.DMA(me, rmaTxnHdrBytes+len(snap), func() {}, func() {
			copy(buf, snap)
			done()
		})
	})
}

// LowLatEndpoint is the low-latency engine plus the CS/2 hardware
// broadcast.
type LowLatEndpoint struct {
	*core.Engine
	tr *lowlatTransport
}

var _ core.HWBcaster = (*LowLatEndpoint)(nil)

// HWBcast implements core.HWBcaster using the CS/2 broadcast network: the
// root gathers tiny ready transactions (flow control), then injects the
// payload once; every other node's Elan deposits it into the broadcast
// slot where the waiting SPARC copies it out.
func (ep *LowLatEndpoint) HWBcast(p *sim.Proc, root, ctx int, buf []byte) error {
	t := ep.tr
	c := t.m.Costs
	size := ep.Size()
	if size == 1 {
		return nil
	}
	// The broadcast network reaches every node, so one dead member makes
	// the collective uncompletable: the root would wait forever for the
	// corpse's ready transaction (or a child for a dead root's payload).
	// Fail with the death reason instead of parking — detection is a
	// simultaneous simulated-time event on every survivor, so all ranks
	// take the same branch.
	ftCheck := func() error {
		if err := t.eng.FatalErr(); err != nil {
			return err
		}
		for _, r := range t.eng.DeadRanks() {
			return t.eng.DeadErr(r)
		}
		return nil
	}
	if err := ftCheck(); err != nil {
		return err
	}
	acct := ep.Acct()
	if ep.Rank() != root {
		// Tell the root we are ready to receive, then wait for the
		// broadcast to land in our slot.
		seq := t.bcSeq
		acct.Charge(p, core.CostProtocol, c.TxnIssue)
		t.node.Txn(root, ctrlTxnBytes, false, func() {
			rt := t.all[root]
			rt.bcReady++
			rt.bcCond.Broadcast()
		})
		for t.bcSeq == seq {
			if err := ftCheck(); err != nil {
				return err
			}
			t.bcCond.Wait(p)
		}
		n := copy(buf, t.bcData)
		acct.Charge(p, core.CostSync, c.ElanSync)
		acct.Charge(p, core.CostCopy, c.CopyBase+sim.Duration(n)*c.CopyPerByte)
		return nil
	}

	// Root: wait for everyone, then broadcast.
	for t.bcReady < size-1 {
		if err := ftCheck(); err != nil {
			return err
		}
		t.bcCond.Wait(p)
	}
	t.bcReady -= size - 1
	acct.Charge(p, core.CostProtocol, c.DMAIssue)
	payload := make([]byte, len(buf))
	copy(payload, buf)
	done := t.node.NewEvent()
	t.node.Broadcast(len(payload), func() { done.Set() }, func(dst *meiko.Node) {
		rt := t.all[dst.ID]
		rt.bcData = payload
		rt.bcSeq++
		rt.bcCond.Broadcast()
	})
	done.Wait(p)
	acct.Incr("hwbcast", 1)
	return nil
}
