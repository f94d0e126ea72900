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

// slotPollCost is the SPARC cost to scan the arrival slots in the poll.
const slotPollCost = 6000 // ns

// The counters the Meiko transports book.
var ctrEager, ctrRndv, ctrHwbcast = core.Counter("eager"), core.Counter("rndv"), core.Counter("hwbcast")
var ctrSend, ctrRecv = core.Counter("send"), core.Counter("recv")

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
	all  []*lowlatTransport // indexed by rank

	// Envelopes and control packets land in inbox and surface through
	// PollStep; a slot-free is a PktCredit the receiving Elan consumes.
	inbox    core.Inbox
	rndvIdle sim.FreeList[rndv] // rendezvous pool (see rndv)

	// Where the poll stands between its charges (see PollStep): 0 before
	// the slot scan, 1 after it, 2 after the slot-free issue for the
	// envelope the inbox last surfaced.
	pollAt uint8

	// Hardware-broadcast state; the slot wait parks on the engine.
	bcSeq   int    // last broadcast sequence delivered here
	bcData  []byte // payload of that broadcast
	bcReady int    // ready tokens collected (when acting as root)
}

func newLowlatTransport(m *meiko.Machine, node *meiko.Node, eng *core.Engine, eager, slots int, all []*lowlatTransport) *lowlatTransport {
	if slots < 1 {
		slots = 1
	}
	t := &lowlatTransport{
		m:    m,
		node: node,
		eng:  eng,
		all:  all,
	}
	t.inbox.Init(eng)
	// Envelope-slot flow control: at most EnvelopeSlots outstanding
	// envelopes per destination (the paper allocates exactly one, §4.1),
	// each envelope — eager or rendezvous — costing one slot, which also
	// totally orders the pair's envelopes.
	eng.SetFlow(eager, core.NewSendQueue(len(all), slots, slots,
		func(*core.Request) int { return 1 }, eng.Acct()))
	return t
}

var _ core.Transport = (*lowlatTransport)(nil)

// ship sends pkt to rank dst in one transaction of nbytes, on a flight of
// this rank's inbox: an envelope or control packet lands in the
// destination's slot area and surfaces through its PollStep, a slot-free
// acknowledgement goes to its Elan. Every envelope is answered by a
// slot-free the other way, which keeps the inboxes' pools balanced.
func (t *lowlatTransport) ship(dst, nbytes int, pkt core.Packet) {
	t.node.Txn(dst, nbytes, false, t.inbox.Flight(&t.all[dst].inbox, pkt))
}

// Ship implements core.Transport: one transaction, issued by the SPARC
// when the rank sends and by the Elan when a slot-free released the send.
// An eager message rides into the destination's envelope slot, modelled by
// a bounce buffer the receiving engine recycles after the copy-out that
// frees the slot; a rendezvous envelope's slot frees when the receiver
// consumes the RTS (see PollStep), and its local completion comes with the
// DMA. A credit is not shipped: the slot was freed when the poll read the
// envelope.
func (t *lowlatTransport) Ship(p *sim.Proc, dst int, pkt core.Packet) {
	if pkt.Kind == core.PktCredit {
		return
	}
	if p != nil {
		t.eng.Acct().Spend(p, sim.Protocol, t.m.Costs.TxnIssue)
	}
	n := ctrlTxnBytes
	switch pkt.Kind {
	case core.PktEager:
		t.eng.Acct().Add(ctrEager, 1)
		pkt.Data, pkt.Pool = t.eng.Bounce(t.all[dst].eng, pkt.Data)
		n = envelopeTxnBytes + len(pkt.Data)
	case core.PktRTS:
		t.eng.Acct().Add(ctrRndv, 1)
		n = envelopeTxnBytes
	}
	t.ship(dst, n, pkt)
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
	name       int64         // the matched receive's name: it dies if the receive fails first
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
	t.eng.Acct().Spend(p, sim.Protocol, t.m.Costs.TxnIssue)
	r := t.rndvIdle.Get()
	if r == nil {
		r = &rndv{}
		r.cts, r.sent, r.land = r.clearToSend, r.departed, r.landed
	}
	r.recv, r.send, r.name, r.env = t, t.all[msg.Env.Source], req.ID, msg.Env
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

// landed runs on the receiver's lane when the DMA completes. A receive
// that a fault failed meanwhile has returned its buffer to the caller, so
// the payload lands only if its name still resolves.
func (r *rndv) landed() {
	t := r.recv
	t.eng.Land(r.name, r.env, r.data, t.eng.Pool())
	t.recycleRndv(r)
}

// recycleRndv returns a finished rendezvous to this rank's pool.
func (t *lowlatTransport) recycleRndv(r *rndv) {
	r.recv, r.send, r.name, r.sreq, r.env, r.n, r.data = nil, nil, 0, nil, core.Envelope{}, 0, nil
	t.rndvIdle.Put(r)
}

// SendPayload implements core.Transport. CTS packets never surface to the
// engine on this platform (the Elan consumes them), so this is never
// reached.
func (t *lowlatTransport) SendPayload(p *sim.Proc, req *core.Request, pkt *core.Packet) {
}

// PeerDown implements core.Transport: the engine has restored the envelope
// slots the dead rank held (a corpse never returns slot-free
// acknowledgements), and its wake reaches the hardware-broadcast slot wait
// too, which then rechecks the dead set (see HWBcast).
func (t *lowlatTransport) PeerDown(rank int) {}

// PollStep implements core.Transport: scan the slot area for the next
// arrival. Consuming any envelope — eager payload copied to the library's
// buffer, or a rendezvous announcement read out — frees the sender's slot
// with a small acknowledgement transaction, so the pair's next envelope
// may travel while this message waits (possibly unmatched) in the
// unexpected queue. Its steps end at the slot scan, then for an envelope
// the slot-free issue, then the slot-free transaction; the engine runs
// them as the head of its receive chain, so a rank is dispatched once per
// message, not once per charge.
func (t *lowlatTransport) PollStep() (sim.Cat, sim.Duration, *core.Packet, *sim.Cond) {
	switch t.pollAt {
	case 0:
		if t.inbox.Len() == 0 {
			return 0, 0, nil, nil
		}
		t.pollAt = 1
		return sim.Protocol, slotPollCost, nil, nil
	case 1:
		pkt := t.inbox.Poll()
		if pkt.Kind != core.PktEager && pkt.Kind != core.PktRTS {
			t.pollAt = 0
			return 0, 0, pkt, nil
		}
		t.pollAt = 2
		if d := t.m.Costs.TxnIssue; d > 0 {
			return sim.Protocol, d, nil, nil
		}
	}
	pkt := t.inbox.Polled()
	t.pollAt = 0
	slotFree := core.Envelope{Source: t.eng.Rank(), Count: 1}
	t.ship(pkt.Env.Source, ctrlTxnBytes, core.Packet{Kind: core.PktCredit, Env: slotFree})
	return 0, 0, pkt, nil
}

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

// RMAWrite implements core.RemoteMemory: small payloads ride one remote
// transaction, large ones a sender-Elan DMA. The target Elan stores the
// bytes (target lane event context) and acks back to the origin itself
// (elanIssued: no SPARC wakeup), firing done on the origin lane.
func (t *lowlatTransport) RMAWrite(p *sim.Proc, dst, win, off int, data []byte, done func()) {
	c := t.m.Costs
	me := t.eng.Rank()
	peer := t.all[dst]
	// Snapshot the payload on the origin lane. Remote stores run in the
	// target lane's event context, concurrent (same epoch) with origin-lane
	// events, so the transfer must never share mutable storage across
	// lanes; same-lane transfers keep the copy too — it is the modeled
	// Elan's copy of the data leaving host memory.
	snap := make([]byte, len(data))
	copy(snap, data)
	apply := func() {
		copy(peer.eng.Win(win)[off:], snap)
		peer.node.Txn(me, ctrlTxnBytes, true, done)
	}
	if len(snap) <= t.eng.MaxEager() {
		t.eng.Acct().Spend(p, sim.Protocol, c.TxnIssue)
		t.node.Txn(dst, rmaTxnHdrBytes+len(snap), false, apply)
		return
	}
	t.eng.Acct().Spend(p, sim.Protocol, c.DMAIssue)
	t.node.DMA(dst, rmaTxnHdrBytes+len(snap), func() {}, apply)
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
		acct.Spend(p, sim.Protocol, c.TxnIssue)
		t.node.Txn(root, ctrlTxnBytes, false, func() {
			rt := t.all[root]
			rt.bcReady++
			rt.eng.Wake()
		})
		for t.bcSeq == seq {
			if err := ftCheck(); err != nil {
				return err
			}
			t.eng.Park(p)
		}
		n := copy(buf, t.bcData)
		acct.Spend(p, sim.Sync, c.ElanSync)
		acct.Spend(p, sim.Copy, c.CopyBase+sim.Duration(n)*c.CopyPerByte)
		return nil
	}

	// Root: wait for everyone, then broadcast.
	for t.bcReady < size-1 {
		if err := ftCheck(); err != nil {
			return err
		}
		t.eng.Park(p)
	}
	t.bcReady -= size - 1
	acct.Spend(p, sim.Protocol, c.DMAIssue)
	payload := make([]byte, len(buf))
	copy(payload, buf)
	done := t.node.NewEvent()
	t.node.Broadcast(len(payload), func() { done.Set() }, func(dst *meiko.Node) {
		rt := t.all[dst.ID]
		rt.bcData = payload
		rt.bcSeq++
		rt.eng.Wake()
	})
	done.Wait(p)
	acct.Add(ctrHwbcast, 1)
	return nil
}
