package core

// Indexed matching: the receive-side hot path of the low-latency design.
//
// The paper's central measurement is that matching and dispatch overhead —
// not wire time — dominates small-message latency (104 µs round trip over
// a 52 µs raw tport exchange). A linear scan over flat queues makes that
// overhead grow with the number of posted receives and queued unexpected
// messages; this file replaces it with constant-time bins while keeping
// MPI's ordering semantics bit-for-bit identical to the LinearMatcher
// oracle (see matchdiff_test.go).
//
// Structure. Matching state lives in FIFO bins keyed by (source, tag,
// context), with AnySource/AnyTag (-1) legal key components:
//
//   - posted receives sit in exactly one bin, keyed by their pattern —
//     (s,t,c), (s,*,c), (*,t,c) or (*,*,c);
//   - unexpected messages are indexed under all four generalizations of
//     their concrete arrival triple, sharing one entry between bins.
//
// Every entry carries a ticket from a single global sequence counter
// stamped at post/arrival time. An arriving envelope consults at most the
// four pattern bins that could match it and takes the head with the
// smallest ticket; a posted receive (or probe) with any pattern — wildcard
// or exact — reads exactly one bin, whose FIFO order is arrival order.
// Removal from the three sibling bins of a consumed unexpected entry is
// lazy: entries are tombstoned and reclaimed when a bin is next read, or
// compacted when tombstones outnumber live entries.
//
// Non-overtaking (proof sketch, expanded in DESIGN.md §5). For a fixed
// (source, context) the transports deliver envelopes in send order, so
// arrival tickets of same-(source,context) messages are ordered by send
// sequence. A receive pattern maps to one bin; within a bin candidates are
// FIFO by ticket, so the earliest matchable message wins. An arrival
// chooses among bin heads by minimum post ticket, so the earliest posted
// matching receive wins. Both directions therefore reproduce exactly the
// linear scan's choice, which is the MPI-required one.
//
// Allocation. Entries and bins come from freelists, a bin's slice is reused
// in place, and each bin map is swept of drained bins before it outgrows a
// small multiple of its live ones (see Matcher.bin) — so matching allocates
// nothing once warm, whether the program cycles one key or a fresh tag per
// step, and the maps stay as small as the live pattern set. Combined with
// the bounce-buffer pools (pool.go) the eager receive path runs at zero
// allocations per message.

// InMsg is an arrived message known to the matcher but not yet delivered:
// either an eager message whose payload sits in a bounce buffer, or a
// rendezvous envelope (RTS) whose payload is still at the sender.
type InMsg struct {
	Env  Envelope
	Data []byte   // eager payload (bounce buffer); nil for rendezvous RTS
	Rndv bool     // true when this is an RTS awaiting Accept
	Pool *BufPool // owner of Data, for recycling after the bounce copy; nil if unpooled
}

// binKey identifies one matching bin: an arrival triple, a posted pattern,
// or one of an arrival's four generalizations (source and tag may be
// AnySource/AnyTag; the context is always exact). The triple is packed
// into one word — tag(32) | source(16) | context(16), mirroring the wire
// header's field widths — so bin maps take Go's single-word fast path.
type binKey uint64

// MaxTag, MaxRanks and MaxContext are the largest tag, world and context id
// a binKey tells apart: a tag of 2³¹ or more would land in another tag's bin
// or the AnyTag bins, rank 65 535 is AnySource, and context 65 534 is −2,
// the context ULFM recovery traffic matches on (65 536 is the world's 0
// again). Nothing below checks; the mpi package rejects the tags and stops
// handing out contexts, platform/registry rejects the worlds.
const (
	MaxTag     = 1<<31 - 1
	MaxRanks   = 1<<16 - 1
	MaxContext = 1<<16 - 3
)

func mkKey(src, tag, ctx int) binKey {
	return binKey(uint32(int32(tag))) | binKey(uint16(src))<<32 | binKey(uint16(ctx))<<48
}

// matchEnt is one queue node. Posted entries are referenced by exactly one
// bin; unexpected entries by up to four. refs counts the bins whose live
// window still contains the entry: it drops as bins skip or compact the
// tombstone, and the entry returns to the freelist at zero.
type matchEnt struct {
	req     *Request // posted side (nil for unexpected entries)
	msg     *InMsg   // unexpected side (nil for posted entries)
	seq     uint64   // global post/arrival ticket
	removed bool     // tombstone: consumed or cancelled
	refs    int8
}

// entQ is one FIFO bin with amortized O(1) pop and in-place compaction.
// The bin owns one reference per entry in items[head:].
type entQ struct {
	items     []*matchEnt
	head      int
	compactAt int // window size that triggers the next compaction
}

const minCompactWindow = 32

// push appends ent (taking a reference), reusing the slice from the front
// when the bin has fully drained and compacting when the slice — live
// window plus consumed prefix — outgrows twice the live population. Both
// bounds together keep a bin's slice at O(live) and the amortized cost per
// push at O(1), so steady-state cycling through a bin never grows it.
func (q *entQ) push(ent *matchEnt, m *Matcher) {
	ent.refs++
	if q.head > 0 && q.head == len(q.items) {
		// Drained: every slot before head is already nil.
		q.items = q.items[:0]
		q.head = 0
	}
	q.items = append(q.items, ent)
	if q.compactAt == 0 {
		q.compactAt = minCompactWindow
	}
	if len(q.items) >= q.compactAt {
		live := q.compact(m)
		q.compactAt = 2*live + minCompactWindow
	}
}

// compact drops tombstoned entries from the live window, releasing their
// references, and reports the number of live entries kept.
func (q *entQ) compact(m *Matcher) int {
	w := 0
	for _, ent := range q.items[q.head:] {
		if ent.removed {
			m.unref(ent)
		} else {
			q.items[w] = ent
			w++
		}
	}
	for i := w; i < len(q.items); i++ {
		q.items[i] = nil
	}
	q.items = q.items[:w]
	q.head = 0
	return w
}

// first returns the earliest live entry without consuming it, reclaiming
// any tombstones in front of it. An emptied bin resets to reuse its slice.
func (q *entQ) first(m *Matcher) *matchEnt {
	for q.head < len(q.items) {
		ent := q.items[q.head]
		if !ent.removed {
			return ent
		}
		q.items[q.head] = nil
		q.head++
		m.unref(ent)
	}
	q.items = q.items[:0]
	q.head = 0
	return nil
}

// take consumes a live entry previously returned by first: tombstone it,
// advance past it, and release this bin's reference. The sibling bins of
// an unexpected entry observe the tombstone lazily.
func (q *entQ) take(ent *matchEnt, m *Matcher) {
	ent.removed = true
	q.items[q.head] = nil
	q.head++
	m.unref(ent)
}

// Matcher implements MPI's matching semantics for one rank with indexed
// (source, tag, context) bins: constant-time posting, arrival, and probing
// regardless of queue depth, identical match selection to LinearMatcher,
// and no steady-state allocation. The zero value is ready to use.
//
// Like MPI_Probe, the Probe method sees only the unexpected queue; posted
// receives are deliberately invisible to it (see Probe).
type Matcher struct {
	seq     uint64 // global post/arrival ticket counter
	posted  map[binKey]*entQ
	unex    map[binKey]*entQ
	entFree []*matchEnt
	qFree   []*entQ
	postedN int
	unexN   int

	// Map sizes at which the next bin creation sweeps (see bin).
	postedSweep, unexSweep int

	// Posted-pattern population by wildcard class. Arrive consults a
	// generalization bin only when its class is populated, so an all-exact
	// workload pays for exactly one map lookup per arrival.
	wTag  int // patterns (src, AnyTag, ctx)
	wSrc  int // patterns (AnySource, tag, ctx)
	wBoth int // patterns (AnySource, AnyTag, ctx)
}

// countPattern books a posted pattern into its wildcard-class population
// (delta +1 on post, -1 on match or cancel).
func (m *Matcher) countPattern(env Envelope, delta int) {
	switch {
	case env.Source == AnySource && env.Tag == AnyTag:
		m.wBoth += delta
	case env.Source == AnySource:
		m.wSrc += delta
	case env.Tag == AnyTag:
		m.wTag += delta
	}
}

func (m *Matcher) newEnt() *matchEnt {
	if n := len(m.entFree); n > 0 {
		ent := m.entFree[n-1]
		m.entFree[n-1] = nil
		m.entFree = m.entFree[:n-1]
		return ent
	}
	return &matchEnt{}
}

// unref releases one bin's reference; the last reference recycles the
// entry.
func (m *Matcher) unref(ent *matchEnt) {
	ent.refs--
	if ent.refs <= 0 {
		*ent = matchEnt{}
		m.entFree = append(m.entFree, ent)
	}
}

// binSweepSlack is the room a swept bin map gets beyond twice its live
// bins. It is small on purpose: Go's maps are cheapest while they fit a
// few groups.
const binSweepSlack = 8

// bin returns the queue for key in mp, creating (or recycling) it on first
// use. A drained bin stays mapped, so a program cycling a fixed key set
// pays one lookup and never a map write; a program minting keys (a tag per
// step) is bounded by sweeping instead: a creation that finds the map at
// *sweepAt first unmaps every drained bin onto qFree and moves the
// threshold to twice what is left plus binSweepSlack. That is amortized
// O(1) per creation, independent of map iteration order, and safe for
// every reader, all of which nil-check their lookup.
func (m *Matcher) bin(mp map[binKey]*entQ, sweepAt *int, key binKey) *entQ {
	if q := mp[key]; q != nil {
		return q
	}
	if len(mp) >= *sweepAt {
		for k, q := range mp {
			if q.first(m) == nil {
				delete(mp, k)
				m.qFree = append(m.qFree, q)
			}
		}
		*sweepAt = 2*len(mp) + binSweepSlack
	}
	var q *entQ
	if n := len(m.qFree); n > 0 {
		q = m.qFree[n-1]
		m.qFree[n-1] = nil
		m.qFree = m.qFree[:n-1]
	} else {
		q = &entQ{}
	}
	mp[key] = q
	return q
}

// PostRecv registers r and returns the earliest unexpected message that
// matches it, removing that message from the queue; it returns nil when no
// unexpected message matches, leaving r posted. The pattern — wildcard or
// not — names exactly one unexpected bin, whose FIFO order is arrival
// order, so the lookup is O(1) amortized.
func (m *Matcher) PostRecv(r *Request) *InMsg {
	key := mkKey(r.Env.Source, r.Env.Tag, r.Env.Context)
	if q := m.unex[key]; q != nil {
		if ent := q.first(m); ent != nil {
			msg := ent.msg
			q.take(ent, m)
			m.unexN--
			return msg
		}
	}
	if m.posted == nil {
		m.posted = make(map[binKey]*entQ)
	}
	ent := m.newEnt()
	ent.req = r
	m.seq++
	ent.seq = m.seq
	m.bin(m.posted, &m.postedSweep, key).push(ent, m)
	m.postedN++
	m.countPattern(r.Env, +1)
	return nil
}

// consider folds one pattern bin's head into the running minimum-ticket
// candidate for Arrive.
func (m *Matcher) consider(key binKey, best *matchEnt, bestQ *entQ) (*matchEnt, *entQ) {
	q := m.posted[key]
	if q == nil {
		return best, bestQ
	}
	ent := q.first(m)
	if ent != nil && (best == nil || ent.seq < best.seq) {
		return ent, q
	}
	return best, bestQ
}

// Arrive matches an arriving envelope against the posted queue, removing
// and returning the earliest matching receive. When nothing matches it
// returns nil; the caller is responsible for queueing the message as
// unexpected (via AddUnexpected) if it should be retained. Of the four
// pattern bins an arrival can match — exact, AnyTag, AnySource, both —
// only those whose wildcard class is populated are consulted; the head
// with the smallest post ticket is the earliest posted matching receive.
func (m *Matcher) Arrive(env Envelope) *Request {
	if m.posted == nil {
		return nil
	}
	src, tag, ctx := env.Source, env.Tag, env.Context
	best, bestQ := m.consider(mkKey(src, tag, ctx), nil, nil)
	if m.wTag > 0 && tag != AnyTag {
		best, bestQ = m.consider(mkKey(src, AnyTag, ctx), best, bestQ)
	}
	if src != AnySource {
		if m.wSrc > 0 {
			best, bestQ = m.consider(mkKey(AnySource, tag, ctx), best, bestQ)
		}
		if m.wBoth > 0 && tag != AnyTag {
			best, bestQ = m.consider(mkKey(AnySource, AnyTag, ctx), best, bestQ)
		}
	}
	if best == nil {
		return nil
	}
	req := best.req
	bestQ.take(best, m)
	m.postedN--
	m.countPattern(req.Env, -1)
	return req
}

// AddUnexpected queues msg in arrival order, indexing it under the four
// generalizations of its arrival triple — exact, (src,*,ctx), (*,tag,ctx),
// (*,*,ctx), degenerate triples collapsing to fewer — so any posted
// pattern finds it in its own bin.
func (m *Matcher) AddUnexpected(msg *InMsg) {
	if m.unex == nil {
		m.unex = make(map[binKey]*entQ)
	}
	ent := m.newEnt()
	ent.msg = msg
	m.seq++
	ent.seq = m.seq
	src, tag, ctx := msg.Env.Source, msg.Env.Tag, msg.Env.Context
	m.bin(m.unex, &m.unexSweep, mkKey(src, tag, ctx)).push(ent, m)
	if tag != AnyTag {
		m.bin(m.unex, &m.unexSweep, mkKey(src, AnyTag, ctx)).push(ent, m)
	}
	if src != AnySource {
		m.bin(m.unex, &m.unexSweep, mkKey(AnySource, tag, ctx)).push(ent, m)
		if tag != AnyTag {
			m.bin(m.unex, &m.unexSweep, mkKey(AnySource, AnyTag, ctx)).push(ent, m)
		}
	}
	m.unexN++
}

// Probe returns the earliest unexpected message matching (src, tag, ctx)
// without removing it, or nil.
//
// Like MPI_Probe, Probe sees only the unexpected queue — by design,
// posted-receive state is invisible to it. A message that already matched
// a posted receive is in delivery (its payload is being copied or its
// rendezvous accepted); MPI defines probe as "is there a message I have
// not yet asked to receive", so such messages must not reappear here.
func (m *Matcher) Probe(src, tag, ctx int) *InMsg {
	q := m.unex[mkKey(src, tag, ctx)]
	if q == nil {
		return nil
	}
	if ent := q.first(m); ent != nil {
		return ent.msg
	}
	return nil
}

// CancelRecv removes a posted receive, reporting whether it was still
// queued (i.e. not yet matched). The pattern names the one bin holding r;
// the scan is bounded by that bin's depth and cancellation is rare.
func (m *Matcher) CancelRecv(r *Request) bool {
	q := m.posted[mkKey(r.Env.Source, r.Env.Tag, r.Env.Context)]
	if q == nil {
		return false
	}
	for _, ent := range q.items[q.head:] {
		if ent.req == r && !ent.removed {
			ent.removed = true // reclaimed when the bin is next read
			m.postedN--
			m.countPattern(r.Env, -1)
			return true
		}
	}
	return false
}

// PostedLen reports the posted-queue depth.
func (m *Matcher) PostedLen() int { return m.postedN }

// UnexpectedLen reports the unexpected-queue depth.
func (m *Matcher) UnexpectedLen() int { return m.unexN }
