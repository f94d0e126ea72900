package meiko

import (
	"repro/internal/sim"
)

// TportHeaderBytes is the tagged-port header carried by every tport
// message on the wire.
const TportHeaderBytes = 16

// TportEager is the widget's internal eager limit: messages at or below
// it travel with the first transaction; larger messages rendezvous between
// the Elans and move by DMA. The real widget was tuned for bandwidth,
// which is exactly the latency trade the paper measures against.
const TportEager = 512

// Tport is the Meiko tagged-message-port widget on one node. All matching
// runs on the Elan co-processor (charged as Elan occupancy), so receives
// progress in the background; the SPARC only synchronizes on completion
// events. This is the substrate of the MPICH baseline and the third series
// of Figures 2 and 3.
type Tport struct {
	node    *Node
	posted  []*tportRecv
	unex    []*tportUnex
	arrival *sim.Cond // broadcast whenever a message reaches the Elan
}

// TportReq is an in-flight tport operation.
type TportReq struct {
	ev   *Event
	done bool
	// Receive results, valid once done: N bytes landed of the Sent the
	// sender's message held (more than N when the buffer was short).
	N, Sent int
	Src     int
	Tag     uint64
	// OnDone, if set before completion, runs when the request completes
	// (event context). Used by layered libraries for buffer recycling.
	OnDone func()
}

func (r *TportReq) finish() {
	r.done = true
	r.ev.Set()
	if r.OnDone != nil {
		r.OnDone()
	}
}

// Done reports completion without blocking.
func (r *TportReq) Done() bool { return r.done }

type tportRecv struct {
	tag, mask uint64
	buf       []byte
	req       *TportReq
}

type tportUnex struct {
	src  int
	tag  uint64
	data []byte // eager payload buffered by the Elan
	rndv *tportRndv
}

type tportRndv struct {
	src    int
	tag    uint64
	nbytes int
	onCTS  func(dstBuf []byte, done func(n int)) // sender-side DMA trigger
}

// NewTport attaches a tport to node n and registers it as the node's port.
func (m *Machine) NewTport(n *Node) *Tport {
	t := &Tport{node: n, arrival: sim.NewCond(n.S)}
	n.Port = t
	return t
}

// WaitArrival parks p until some message reaches this port's Elan; layered
// libraries use it to implement blocking probes.
func (t *Tport) WaitArrival(p *sim.Proc) { t.arrival.Wait(p) }

// CancelRecv removes a posted receive that has not matched, reporting
// whether it was still queued.
func (t *Tport) CancelRecv(req *TportReq) bool {
	for i, rc := range t.posted {
		if rc.req == req {
			t.posted = append(t.posted[:i], t.posted[i+1:]...)
			return true
		}
	}
	return false
}

// tagMatches applies the widget's tag/mask match: bits outside mask are
// wildcarded.
func tagMatches(msgTag, want, mask uint64) bool { return (msgTag & mask) == (want & mask) }

// ISend starts a tagged send of data to node dst. The returned request
// completes when the sender's buffer is reusable (eager: injected;
// rendezvous: DMA drained).
func (t *Tport) ISend(p *sim.Proc, dst int, tag uint64, data []byte) *TportReq {
	c := t.node.M.Costs
	req := &TportReq{ev: t.node.NewEvent()}
	p.Spend(sim.Sync, c.TportIssue) // SPARC hands the descriptor to the Elan
	peer := t.node.M.Nodes[dst]
	src := t.node.ID
	n := len(data)

	complete := func() {
		req.N = n
		req.finish()
	}

	if n <= TportEager {
		stable := make([]byte, n)
		copy(stable, data)
		t.node.elan(c.ElanTportSend, func() {
			t.node.Txn(dst, TportHeaderBytes+n, false, func() {
				peerPort(peer).arriveEager(src, tag, stable)
			})
			complete() // locally complete once handed to the wire
		})
		return req
	}

	// Rendezvous: the envelope transaction announces the message; the
	// receiver's Elan answers with a CTS once matched, and the sender's
	// Elan DMAs the payload autonomously — the SPARC is not involved.
	rv := &tportRndv{src: src, tag: tag, nbytes: n}
	rv.onCTS = func(dstBuf []byte, done func(nn int)) {
		m := n
		if m > len(dstBuf) {
			m = len(dstBuf)
		}
		copy(dstBuf[:m], data[:m])
		t.node.DMA(dst, m, complete, func() { done(m) })
	}
	t.node.elan(c.ElanTportSend, func() {
		t.node.Txn(dst, TportHeaderBytes, false, func() {
			peerPort(peer).arriveRndv(rv)
		})
	})
	return req
}

// Send is the blocking form of ISend.
func (t *Tport) Send(p *sim.Proc, dst int, tag uint64, data []byte) {
	t.Wait(p, t.ISend(p, dst, tag, data))
}

// IRecv posts a receive for messages whose tag matches (tag, mask).
func (t *Tport) IRecv(p *sim.Proc, tag, mask uint64, buf []byte) *TportReq {
	c := t.node.M.Costs
	req := &TportReq{ev: t.node.NewEvent()}
	p.Spend(sim.Sync, c.TportIssue)
	rc := &tportRecv{tag: tag, mask: mask, buf: buf, req: req}
	// Matching against the unexpected queue runs on the Elan.
	t.node.elan(c.ElanTportMatch, func() {
		for i, u := range t.unex {
			if tagMatches(u.tag, tag, mask) {
				t.unex = append(t.unex[:i], t.unex[i+1:]...)
				t.deliverUnexpected(u, rc)
				return
			}
		}
		t.posted = append(t.posted, rc)
	})
	return req
}

// Recv is the blocking form of IRecv; it reports the received byte count,
// source node and full tag.
func (t *Tport) Recv(p *sim.Proc, tag, mask uint64, buf []byte) (int, int, uint64) {
	req := t.IRecv(p, tag, mask, buf)
	t.Wait(p, req)
	return req.N, req.Src, req.Tag
}

// Wait blocks p until req completes, paying the SPARC<->Elan sync cost if
// it actually blocks.
func (t *Tport) Wait(p *sim.Proc, req *TportReq) {
	req.ev.Wait(p)
}

// Probe reports whether an unexpected message matching (tag, mask) is
// buffered, with its source, byte count and tag. Probing is a SPARC->Elan
// query.
func (t *Tport) Probe(p *sim.Proc, tag, mask uint64) (src, n int, mtag uint64, ok bool) {
	c := t.node.M.Costs
	p.Spend(sim.Sync, c.TportIssue+c.ElanSync)
	for _, u := range t.unex {
		if tagMatches(u.tag, tag, mask) {
			if u.rndv != nil {
				return u.src, u.rndv.nbytes, u.tag, true
			}
			return u.src, len(u.data), u.tag, true
		}
	}
	return 0, 0, 0, false
}

// arriveEager runs on the destination Elan when an eager message lands.
func (t *Tport) arriveEager(src int, tag uint64, data []byte) {
	c := t.node.M.Costs
	t.node.elan(c.ElanTportMatch, func() {
		if rc := t.takeMatch(tag); rc != nil {
			// Matched: the network deposits straight into the posted
			// buffer; no intermediate copy (the widget's bandwidth
			// optimization).
			n := copy(rc.buf, data)
			rc.req.N, rc.req.Sent = n, len(data)
			rc.req.Src = src
			rc.req.Tag = tag
			rc.req.finish()
			return
		}
		// Buffer unexpected data Elan-side. The queue entry is made
		// immediately so arrival order (and MPI's non-overtaking rule) is
		// preserved even against receives posted during the copy; the
		// copy itself is modeled as Elan occupancy.
		t.unex = append(t.unex, &tportUnex{src: src, tag: tag, data: data})
		t.node.elan(sim.Duration(len(data))*c.ElanCopyPerByte, func() {
			t.arrival.Broadcast()
		})
	})
}

// arriveRndv runs on the destination Elan when a rendezvous envelope lands.
func (t *Tport) arriveRndv(rv *tportRndv) {
	c := t.node.M.Costs
	t.node.elan(c.ElanTportMatch, func() {
		if rc := t.takeMatch(rv.tag); rc != nil {
			t.cts(rv, rc)
			return
		}
		t.unex = append(t.unex, &tportUnex{src: rv.src, tag: rv.tag, rndv: rv})
		t.arrival.Broadcast()
	})
}

// cts sends the clear-to-send back to the sender's Elan and arranges
// completion when the DMA lands.
func (t *Tport) cts(rv *tportRndv, rc *tportRecv) {
	t.node.Txn(rv.src, TportHeaderBytes, true, func() {
		rv.onCTS(rc.buf, func(n int) {
			rc.req.N, rc.req.Sent = n, rv.nbytes
			rc.req.Src = rv.src
			rc.req.Tag = rv.tag
			rc.req.finish()
		})
	})
}

// deliverUnexpected completes a receive from the unexpected queue
// (running on the Elan).
func (t *Tport) deliverUnexpected(u *tportUnex, rc *tportRecv) {
	c := t.node.M.Costs
	if u.rndv != nil {
		t.cts(u.rndv, rc)
		return
	}
	n := copy(rc.buf, u.data)
	t.node.elan(sim.Duration(n)*c.ElanCopyPerByte, func() {
		rc.req.N, rc.req.Sent = n, len(u.data)
		rc.req.Src = u.src
		rc.req.Tag = u.tag
		rc.req.finish()
	})
}

// takeMatch removes and returns the earliest posted receive matching tag.
func (t *Tport) takeMatch(tag uint64) *tportRecv {
	for i, rc := range t.posted {
		if tagMatches(tag, rc.tag, rc.mask) {
			t.posted = append(t.posted[:i], t.posted[i+1:]...)
			return rc
		}
	}
	return nil
}

// peerPort finds the tport attached to a node; ports register themselves.
func peerPort(n *Node) *Tport {
	if n.Port == nil {
		panic("meiko: destination node has no tport attached")
	}
	return n.Port
}
