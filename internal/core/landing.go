package core

import "slices"

// The rendezvous state a wire's frames feed: where each source's payload
// goes as its bytes arrive, and the advertisements peers made of their
// pre-posted receives. Both name a receive by its request name, and both
// are allocated on first use: an eager-only world holds neither.
//
// The advertisements back the RDMA-write rendezvous (RecvAdvertiser,
// DESIGN §9). An advertised receive stays posted, so an earlier message can
// still match it: a direct write claims it when its first frame is parsed,
// and a failed claim lands in a bounce buffer that re-enters the matcher as
// an eager arrival in its stream position. The claim itself is not ordered
// with the matching of earlier messages (TestDirectClaimOvertakesPinned).

// landing is where one source's rendezvous payload goes as its bytes
// arrive. It is busy from the payload's first frame until got reaches the
// message's size. One per source suffices on a stream and on datagrams
// alike: a sender pushes a payload from its one proc and sends nothing else
// until it is done, and the wire delivers one sender's bytes in order.
type landing struct {
	env    Envelope // the message's, from the first frame; Count is its full size
	got    int      // payload bytes in so far
	name   int64    // the receive it completes; 0 when it surfaces nothing
	buf    []byte   // the part of the receive's buffer the message fills
	bounce []byte   // a stale claim's payload, re-entering as an eager arrival
}

func (st *landing) busy() bool { return st.got < st.env.Count }

// advert is one sender-side record of a peer's pre-posted receive.
type advert struct {
	env  Envelope // Source = advertising rank; Count = buffer capacity
	name int64    // the advertised receive's name
}

// Land completes receive req with its rendezvous payload, on every wire:
// data is the payload when the wire delivers a copy (the MemFabric's
// mailbox, the Meiko's DMA), copied into req.Buf up to what fits and handed
// back to pool; nil when the bytes were placed as they arrived (a socket
// landing). Callable from event context.
func (e *Engine) Land(req *Request, env Envelope, data []byte, pool *BufPool) {
	copy(req.Buf, data)
	pool.Put(data)
	e.recvDone(req, env, env.Count, "rndv")
}

// Advertised records, as its frame is parsed, a peer's advertisement of a
// pre-posted receive: env names the advertising rank as Source, the posted
// signature, and the buffer's capacity as Count.
func (e *Engine) Advertised(env Envelope, name int64) {
	if e.ads == nil {
		e.ads = make(map[int][]advert)
	}
	e.ads[env.Source] = append(e.ads[env.Source], advert{env: env, name: name})
}

// TakeAdvert consumes the first advertisement matching rendezvous send req
// and returns the receive it names. Synchronous sends keep the RTS/CTS path
// (their ack rides the CTS), and ready sends assert the receive exists
// anyway; an advertisement whose capacity is short of the message falls
// back too, keeping truncation on the one code path that handles it.
func (e *Engine) TakeAdvert(req *Request) (name int64, ok bool) {
	if req.Env.Mode != ModeStandard && req.Env.Mode != ModeBuffered {
		return 0, false
	}
	q := e.ads[req.Env.Dest]
	for i, ad := range q {
		if ad.env.Context == req.Env.Context && ad.env.Tag == req.Env.Tag && ad.env.Count >= req.Env.Count {
			e.ads[req.Env.Dest] = slices.Delete(q, i, i+1)
			return ad.name, true
		}
	}
	return 0, false
}

// DataFrame books the header of one Data frame from src naming receive
// name. The frame that finds src's landing idle starts a payload and
// resolves the receive: a CTS-clocked payload (its SendID set) lands in its
// live receive; a direct write claims its advertised receive from the
// matcher and, when the claim fails (the receive matched an earlier message
// meanwhile), lands in a bounce buffer instead, for re-injection. A frame
// whose payload lands nowhere is a protocol error from a live sender; from
// a dead one it is the rest of what its kernel sent, drained.
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
		direct := env.SendID == 0
		var req *Request
		if !dead {
			req = e.claim(name, direct)
		}
		switch {
		case req != nil:
			st.name, st.buf = req.ID, req.Buf[:min(env.Count, len(req.Buf))]
		case direct && !dead:
			st.bounce = e.pool.Get(env.Count)
			e.acct.Add(ctrRtrStale, 1)
		}
	}
	if st.name == 0 && st.bounce == nil && !dead {
		e.Errors = append(e.Errors, Errorf(ErrInternal, "rendezvous data for unknown receive %d", name))
	}
}

// claim resolves the receive a payload names, or nil. A direct write takes
// it from the matcher, and fails if it already matched, completed (a stale
// name) or was cancelled.
func (e *Engine) claim(name int64, direct bool) *Request {
	req := e.resolve(name)
	if req == nil || !direct {
		return req
	}
	if req.matched || !e.match.CancelRecv(req) {
		return nil
	}
	req.matched = true
	req.matchedSrc = req.Env.Source // RTR requires a fully specific pattern
	return req
}

// PayloadLeft reports how many bytes of src's rendezvous payload have yet
// to land: 0 when none is in flight.
func (e *Engine) PayloadLeft(src int) int {
	if e.lands == nil || e.lands[src] == nil {
		return 0
	}
	return e.lands[src].env.Count - e.lands[src].got
}

// RndvHeld reports, for audits, what the engine keeps for peer: how many of
// its advertisements, and what its landing holds — the receive it completes
// (0 when none) and a stale claim's bounce buffer.
func (e *Engine) RndvHeld(peer int) (ads int, name int64, bounce []byte) {
	if e.lands != nil && e.lands[peer] != nil {
		name, bounce = e.lands[peer].name, e.lands[peer].bounce
	}
	return len(e.ads[peer]), name, bounce
}

// Place reports where the next n bytes of src's payload land: a stale
// claim's bounce buffer (sized to the full message, so it never truncates),
// else the receive's buffer up to the bytes that fit it. Bytes the slice
// does not cover are discarded. Ask per read: a read charges time, and
// PeerDown may take the landing away meanwhile.
func (e *Engine) Place(src, n int) []byte {
	st := e.lands[src]
	if st.bounce != nil {
		return st.bounce[st.got : st.got+n]
	}
	return st.buf[min(st.got, len(st.buf)):min(st.got+n, len(st.buf))]
}

// Landed books n more bytes of src's payload in. The last one completes the
// landing through in, the wire's inbox, in its exact stream position:
// PktData naming the receive, or a stale claim's bounced payload as an
// eager arrival. A payload that landed nowhere surfaces nothing.
//
// A bounce drifts the pair's credit: the eager path Releases the header and
// payload, which the credit-exempt direct write never reserved, so the
// sender's credit grows for good, and a 32 KiB bounce alone crosses the
// quarter-reservation flush and sends an explicit PktCredit.
func (e *Engine) Landed(src, n int, in *Inbox) {
	st := e.lands[src]
	st.got += n
	if st.busy() {
		return
	}
	if st.bounce != nil {
		in.Push(Packet{Kind: PktEager, Env: st.env, Data: st.bounce, Pool: e.pool})
	} else if st.name != 0 {
		in.Push(Packet{Kind: PktData, Env: st.env, ReqID: st.name})
	}
	st.name, st.buf, st.bounce = 0, nil, nil
}

// sweepRndv forgets a dead rank's advertisements. Its landing lets go of
// the receive and returns a stale claim's bounce buffer to the pool, but
// keeps its cursor: the rest of a payload the corpse's kernel still sends
// drains into nothing.
func (e *Engine) sweepRndv(rank int) {
	delete(e.ads, rank)
	if e.lands == nil || e.lands[rank] == nil {
		return
	}
	st := e.lands[rank]
	e.pool.Put(st.bounce)
	st.name, st.buf, st.bounce = 0, nil, nil
}
