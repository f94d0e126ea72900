package core

// InMsg is an arrived message known to the matcher but not yet delivered:
// either an eager message whose payload sits in a bounce buffer, or a
// rendezvous envelope (RTS) whose payload is still at the sender.
type InMsg struct {
	Env  Envelope
	Data []byte   // eager payload (bounce buffer); nil for rendezvous RTS
	Rndv bool     // true when this is an RTS awaiting Accept
	Pool *BufPool // owner of Data, for recycling after the bounce copy; nil if unpooled
}

// envMatches reports whether a posted receive pattern (src, tag, ctx)
// accepts envelope e. The context is never a wildcard; source and tag may
// each be AnySource/AnyTag.
func envMatches(e Envelope, src, tag, ctx int) bool {
	if e.Context != ctx {
		return false
	}
	if src != AnySource && e.Source != src {
		return false
	}
	if tag != AnyTag && e.Tag != tag {
		return false
	}
	return true
}

// LinearMatcher is the reference implementation of MPI's matching
// semantics for one rank: an ordered posted-receive queue and an ordered
// unexpected-message queue, both scanned linearly. MPI requires
// non-overtaking delivery — two messages from the same source on the same
// communicator match receives in send order — which falls out of scanning
// both queues strictly in arrival/post order.
//
// The engine's hot path uses the indexed Matcher instead; LinearMatcher is
// kept as the oracle the differential and fuzz tests compare it against
// (matchdiff_test.go), not as a speed baseline. Both types expose the
// identical method set.
type LinearMatcher struct {
	posted     []*Request
	unexpected []*InMsg
}

// PostRecv registers r and returns the earliest unexpected message that
// matches it, removing that message from the queue; it returns nil when no
// unexpected message matches, leaving r posted.
func (m *LinearMatcher) PostRecv(r *Request) *InMsg {
	for i, msg := range m.unexpected {
		if envMatches(msg.Env, r.Env.Source, r.Env.Tag, r.Env.Context) {
			m.unexpected = append(m.unexpected[:i], m.unexpected[i+1:]...)
			return msg
		}
	}
	m.posted = append(m.posted, r)
	return nil
}

// Arrive matches an arriving envelope against the posted queue, removing
// and returning the earliest matching receive. When nothing matches it
// returns nil; the caller is responsible for queueing the message as
// unexpected (via AddUnexpected) if it should be retained.
func (m *LinearMatcher) Arrive(env Envelope) *Request {
	for i, r := range m.posted {
		if envMatches(env, r.Env.Source, r.Env.Tag, r.Env.Context) {
			m.posted = append(m.posted[:i], m.posted[i+1:]...)
			return r
		}
	}
	return nil
}

// AddUnexpected appends msg to the unexpected queue in arrival order.
func (m *LinearMatcher) AddUnexpected(msg *InMsg) {
	m.unexpected = append(m.unexpected, msg)
}

// Probe returns the earliest unexpected message matching (src, tag, ctx)
// without removing it, or nil. Like MPI_Probe, it sees only the
// unexpected queue: a message already matched to a posted receive is in
// delivery and no longer probe-visible (see Matcher.Probe).
func (m *LinearMatcher) Probe(src, tag, ctx int) *InMsg {
	for _, msg := range m.unexpected {
		if envMatches(msg.Env, src, tag, ctx) {
			return msg
		}
	}
	return nil
}

// CancelRecv removes a posted receive, reporting whether it was still
// queued (i.e. not yet matched).
func (m *LinearMatcher) CancelRecv(r *Request) bool {
	for i, q := range m.posted {
		if q == r {
			m.posted = append(m.posted[:i], m.posted[i+1:]...)
			return true
		}
	}
	return false
}

// PostedLen and UnexpectedLen expose queue depths for tests and stats.
func (m *LinearMatcher) PostedLen() int { return len(m.posted) }

// UnexpectedLen reports the unexpected-queue depth.
func (m *LinearMatcher) UnexpectedLen() int { return len(m.unexpected) }
