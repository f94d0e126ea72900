package core

import (
	"cmp"
	"slices"
)

// A request's wire name is (slot, generation) packed into the 32-bit id
// field of the flow header: the low slotBits index the engine's request
// table, the rest count how often the slot has been issued. Generations
// start at 1, so no name is zero, and a slot whose generation would wrap is
// retired instead of reused: no name is issued twice in a world.
const (
	slotBits = 20
	slotMask = 1<<slotBits - 1
	maxGen   = 1<<(32-slotBits) - 1
)

// reqSlot is one entry of the request table: the live request, if any, and
// the generation its name carries (or the next issue will).
type reqSlot struct {
	req *Request
	gen uint32
}

// newRequest issues a zeroed request under a fresh name.
func (e *Engine) newRequest() (*Request, error) {
	var idx int
	if n := len(e.vacant) - 1; n >= 0 {
		idx, e.vacant = int(e.vacant[n]), e.vacant[:n]
	} else if idx = len(e.slots); idx <= slotMask {
		e.slots = append(e.slots, reqSlot{gen: 1})
	} else {
		return nil, Errorf(ErrInternal, "request table full: %d slots live or retired", idx)
	}
	r := e.idle.Get()
	if r == nil {
		r = new(Request)
	}
	e.nextSeq++
	r.seq = e.nextSeq
	r.ID = int64(e.slots[idx].gen)<<slotBits | int64(idx)
	e.slots[idx].req = r
	return r, nil
}

// tabled reports whether r still holds its slot.
func (e *Engine) tabled(r *Request) bool {
	idx := int(r.ID & slotMask)
	return r.ID != 0 && idx < len(e.slots) && e.slots[idx].req == r
}

// resolve maps a wire name to its live request. A stale name — the request
// was retired, whether or not the slot has been reissued since — resolves
// to nil and is counted.
func (e *Engine) resolve(name int64) *Request {
	if idx := int(name & slotMask); idx < len(e.slots) {
		if s := e.slots[idx]; s.req != nil && int64(s.gen) == name>>slotBits {
			return s.req
		}
	}
	e.acct.Add(ctrReqStale, 1)
	return nil
}

// untable vacates r's slot, killing its name.
func (e *Engine) untable(r *Request) {
	if !e.tabled(r) {
		return
	}
	idx := int(r.ID & slotMask)
	s := &e.slots[idx]
	s.req = nil
	if !r.IsRecv && !r.sent {
		e.unsent--
	}
	if s.gen < maxGen {
		s.gen++
		e.vacant = append(e.vacant, uint32(idx))
	}
}

// markSent records that the wire has taken req's data.
func (e *Engine) markSent(req *Request) {
	if !req.sent && e.tabled(req) {
		e.unsent--
	}
	req.sent = true
}

// retire vacates req's slot once nothing can still name it: a receive when
// complete, a send only after the transport has finished moving the data (a
// buffered rendezvous send is "done" for the caller long before its CTS
// arrives). A retired request the caller has consumed is zeroed for reissue,
// unless it completed with an error: a failed request may still sit in a
// transport queue (whose transmit checks Err for exactly this) and is left
// to the collector. Every call runs on the engine's own lane, which keeps
// the idle list lane-local.
func (e *Engine) retire(req *Request) {
	if !req.done || !req.IsRecv && !req.sent {
		return
	}
	e.untable(req)
	if !req.consumed || req.err != nil {
		return
	}
	*req = Request{}
	e.idle.Put(req)
}

// consume ends the caller's hold on r, reporting its outcome.
func (e *Engine) consume(r *Request) (Status, error) {
	st, err := r.status, r.err
	r.consumed = true
	e.retire(r)
	return st, err
}

// stale reports (and counts) a request used after it was consumed.
func (e *Engine) stale(r *Request) error {
	if r.ID != 0 && !r.consumed {
		return nil
	}
	e.acct.Add(ctrReqStale, 1)
	return Errorf(ErrInternal, "request used after Wait, Test or Cancel consumed it")
}

// tabledInOrder lists the live requests in creation order: the fault sweeps
// cancel posted receives as they go, and later matching observes the order.
func (e *Engine) tabledInOrder() []*Request {
	var rs []*Request
	for _, s := range e.slots {
		if s.req != nil {
			rs = append(rs, s.req)
		}
	}
	slices.SortFunc(rs, func(a, b *Request) int { return cmp.Compare(a.seq, b.seq) })
	return rs
}
