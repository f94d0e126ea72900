package core

// The rendezvous state a wire's frames feed: where each source's payload
// goes as its bytes arrive. A payload names its receive by the request name
// the receiver's CTS carried, and the table is allocated on first use: an
// eager-only world holds none.

// landing is where one source's rendezvous payload goes as its bytes
// arrive. It is busy from the payload's first frame until got reaches the
// message's size. One per source suffices on a stream and on datagrams
// alike: a sender pushes a payload from its one proc and sends nothing else
// until it is done, and the wire delivers one sender's bytes in order.
type landing struct {
	env  Envelope // the message's, from the first frame; Count is its full size
	got  int      // payload bytes in so far
	name int64    // the receive it completes; 0 when it surfaces nothing
	buf  []byte   // the part of the receive's buffer the message fills
}

func (st *landing) busy() bool { return st.got < st.env.Count }

// Land completes the receive named name with its rendezvous payload, on
// every wire: data is the payload when the wire delivers a copy (the
// MemFabric's mailbox, the Meiko's DMA), copied into the receive's buffer up
// to what fits and handed back to pool; nil when the bytes were placed as
// they arrived (a socket landing). A name that no longer resolves belongs
// to a receive that already returned (a peer's death failed it): its buffer
// is the caller's again, so nothing is copied, and Land reports false.
// Callable from event context.
func (e *Engine) Land(name int64, env Envelope, data []byte, pool *BufPool) bool {
	req := e.resolve(name)
	if req != nil {
		copy(req.Buf, data)
	}
	pool.Put(data)
	if req == nil {
		return false
	}
	e.recvDone(req, env, env.Count, "rndv")
	return true
}

// DataFrame books the header of one Data frame from src naming receive
// name. The frame that finds src's landing idle starts a payload and
// resolves the receive its CTS granted. A frame whose payload lands nowhere
// is a protocol error from a live sender; from a dead one it is the rest of
// what its kernel sent, drained.
func (e *Engine) DataFrame(src int, env Envelope, name int64) {
	if e.lands == nil {
		e.lands = make([]*landing, e.size)
	}
	st := e.lands[src]
	if st == nil {
		st = new(landing)
		e.lands[src] = st
	}
	dead := e.PeerDead(src)
	if !st.busy() {
		*st = landing{env: env}
		if !dead {
			if req := e.resolve(name); req != nil {
				st.name, st.buf = req.ID, req.Buf[:min(env.Count, len(req.Buf))]
			}
		}
	}
	if st.name == 0 && !dead {
		e.Errors = append(e.Errors, Errorf(ErrInternal, "rendezvous data for unknown receive %d", name))
	}
}

// PayloadLeft reports how many bytes of src's rendezvous payload have yet
// to land: 0 when none is in flight.
func (e *Engine) PayloadLeft(src int) int {
	if e.lands == nil || e.lands[src] == nil {
		return 0
	}
	return e.lands[src].env.Count - e.lands[src].got
}

// RndvHeld reports, for audits, the receive src's landing completes: 0
// when none.
func (e *Engine) RndvHeld(src int) int64 {
	if e.lands == nil || e.lands[src] == nil {
		return 0
	}
	return e.lands[src].name
}

// Place reports where the next n bytes of src's payload land: the receive's
// buffer up to the bytes that fit it. Bytes the slice does not cover are
// discarded. Ask per read: a read charges time, and PeerDown may take the
// landing away meanwhile.
func (e *Engine) Place(src, n int) []byte {
	st := e.lands[src]
	return st.buf[min(st.got, len(st.buf)):min(st.got+n, len(st.buf))]
}

// Landed books n more bytes of src's payload in. The last one completes the
// landing through in, the wire's inbox, in its exact stream position as
// PktData naming the receive. A payload that landed nowhere surfaces
// nothing.
func (e *Engine) Landed(src, n int, in *Inbox) {
	st := e.lands[src]
	st.got += n
	if st.busy() {
		return
	}
	if st.name != 0 {
		in.Push(Packet{Kind: PktData, Env: st.env, ReqID: st.name})
	}
	st.name, st.buf = 0, nil
}

// sweepRndv makes a dead rank's landing let go of its receive but keep its
// cursor: the rest of a payload the corpse's kernel still sends drains into
// nothing.
func (e *Engine) sweepRndv(rank int) {
	if e.lands != nil && e.lands[rank] != nil {
		e.lands[rank].name, e.lands[rank].buf = 0, nil
	}
}
