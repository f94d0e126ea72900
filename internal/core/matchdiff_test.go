package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

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
// The engine uses the indexed Matcher; LinearMatcher is the oracle the
// differential and fuzz tests below compare it against, not a speed
// baseline. Both types expose the identical method set.
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

// matchQueue is the method set shared by the indexed Matcher and the
// LinearMatcher oracle; the behavioral tests run against both and the
// differential tests check them against each other.
type matchQueue interface {
	PostRecv(*Request) *InMsg
	Arrive(Envelope) *Request
	AddUnexpected(*InMsg)
	Probe(src, tag, ctx int) *InMsg
	CancelRecv(*Request) bool
	PostedLen() int
	UnexpectedLen() int
}

var (
	_ matchQueue = (*Matcher)(nil)
	_ matchQueue = (*LinearMatcher)(nil)
)

// forEachMatcher runs f once per matcher implementation.
func forEachMatcher(t *testing.T, f func(t *testing.T, mk func() matchQueue)) {
	t.Helper()
	t.Run("indexed", func(t *testing.T) { f(t, func() matchQueue { return &Matcher{} }) })
	t.Run("linear", func(t *testing.T) { f(t, func() matchQueue { return &LinearMatcher{} }) })
}

// runMatchDiff interprets ops as a randomized post/arrive/probe/cancel
// sequence (wildcards included), drives the indexed matcher and the linear
// oracle in lockstep, and reports the first divergence. Each op consumes
// four bytes: opcode, source, tag, context. With sweepAlways every bin
// creation sweeps its map (see Matcher.bin), so drained bins are unmapped
// and recycled at every opportunity instead of once per doubling.
func runMatchDiff(ops []byte, sweepAlways bool) error {
	var idx Matcher
	var lin LinearMatcher
	var posted []*Request
	var sendSeq uint64
	for step := 0; len(ops) >= 4; step++ {
		op, s, tg, cx := ops[0]%8, ops[1], ops[2], ops[3]
		ops = ops[4:]
		if sweepAlways {
			idx.postedSweep, idx.unexSweep = 0, 0
		}
		// Small rank/tag/context spaces force collisions, wildcard overlap
		// and deep queues; -1 is AnySource/AnyTag.
		src := int(s%5) - 1
		tag := int(tg%5) - 1
		ctx := int(cx % 2)
		switch op {
		case 0, 1, 2: // post a receive (pattern may be wildcard)
			r := &Request{IsRecv: true, Env: Envelope{Source: src, Tag: tag, Context: ctx}}
			mi := idx.PostRecv(r)
			ml := lin.PostRecv(r)
			if mi != ml {
				return fmt.Errorf("step %d: PostRecv(%d,%d,%d): indexed=%v linear=%v", step, src, tag, ctx, mi, ml)
			}
			if mi == nil {
				posted = append(posted, r)
			}
		case 3, 4, 5: // an envelope arrives (always concrete)
			if src < 0 {
				src = 0
			}
			if tag < 0 {
				tag = 0
			}
			sendSeq++
			env := Envelope{Source: src, Tag: tag, Context: ctx, Seq: sendSeq, SendID: int64(sendSeq)}
			ri := idx.Arrive(env)
			rl := lin.Arrive(env)
			if ri != rl {
				return fmt.Errorf("step %d: Arrive(%d,%d,%d): indexed=%v linear=%v", step, src, tag, ctx, ri, rl)
			}
			if ri == nil {
				msg := &InMsg{Env: env}
				idx.AddUnexpected(msg)
				lin.AddUnexpected(msg)
			}
		case 6: // probe (pattern may be wildcard)
			pi := idx.Probe(src, tag, ctx)
			pl := lin.Probe(src, tag, ctx)
			if pi != pl {
				return fmt.Errorf("step %d: Probe(%d,%d,%d): indexed=%v linear=%v", step, src, tag, ctx, pi, pl)
			}
		case 7: // cancel a previously posted receive (possibly already matched)
			if len(posted) == 0 {
				continue
			}
			i := int(s) % len(posted)
			r := posted[i]
			ci := idx.CancelRecv(r)
			cl := lin.CancelRecv(r)
			if ci != cl {
				return fmt.Errorf("step %d: CancelRecv: indexed=%v linear=%v", step, ci, cl)
			}
			if ci {
				posted = append(posted[:i], posted[i+1:]...)
			}
		}
		if idx.PostedLen() != lin.PostedLen() || idx.UnexpectedLen() != lin.UnexpectedLen() {
			return fmt.Errorf("step %d: depths diverged: indexed (%d,%d) linear (%d,%d)",
				step, idx.PostedLen(), idx.UnexpectedLen(), lin.PostedLen(), lin.UnexpectedLen())
		}
	}
	return nil
}

// runMatchDiffBoth runs the lockstep driver under the amortized sweep
// schedule and with a sweep forced at every bin creation.
func runMatchDiffBoth(ops []byte) error {
	if err := runMatchDiff(ops, false); err != nil {
		return err
	}
	if err := runMatchDiff(ops, true); err != nil {
		return fmt.Errorf("sweeping at every bin creation: %w", err)
	}
	return nil
}

// TestMatchDifferentialQuick runs the lockstep driver over random op
// streams (the CI race job runs this under -race).
func TestMatchDifferentialQuick(t *testing.T) {
	prop := func(ops []byte) bool {
		if err := runMatchDiffBoth(ops); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
}

// TestMatchDifferentialLong drives one long adversarial stream so queues
// grow deep enough to exercise bin compaction and freelist reuse.
func TestMatchDifferentialLong(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ops := make([]byte, 40000)
	rng.Read(ops)
	if err := runMatchDiffBoth(ops); err != nil {
		t.Fatal(err)
	}
}

// FuzzMatchDiff is the native fuzz entry for the differential driver; the
// seed corpus runs in every `go test`.
func FuzzMatchDiff(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 1, 2, 0})
	f.Add([]byte{2, 0, 0, 1, 5, 0, 0, 1, 6, 0, 0, 1, 7, 0, 0, 1})
	rng := rand.New(rand.NewSource(11))
	seed := make([]byte, 400)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runMatchDiffBoth(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// postedCycle builds the arrive/posted scenario at the given depth: depth
// posted receives, every (source, tag) distinct, and an arrival that matches
// the last-posted one — the whole-queue scan for a linear matcher, one bin
// for the indexed one. Each cycle re-posts the matched receive, so the depth
// holds.
func postedCycle(t *testing.T, depth int) (*Matcher, func()) {
	m := &Matcher{}
	for i := 0; i < depth; i++ {
		m.PostRecv(recvReq(i%4, i, 0))
	}
	env := Envelope{Source: (depth - 1) % 4, Tag: depth - 1, Context: 0}
	return m, func() {
		r := m.Arrive(env)
		if r == nil {
			t.Fatal("arrival missed posted receive")
		}
		m.PostRecv(r)
	}
}

// unexpectedCycle is the mirror image: depth queued unexpected messages and
// a receive that matches the last-queued one; each cycle re-queues it.
func unexpectedCycle(t *testing.T, depth int) (*Matcher, *Request, func()) {
	m := &Matcher{}
	for i := 0; i < depth; i++ {
		m.AddUnexpected(&InMsg{Env: Envelope{Source: i % 4, Tag: i, Context: 0, Seq: uint64(i + 1)}})
	}
	req := recvReq((depth-1)%4, depth-1, 0)
	return m, req, func() {
		msg := m.PostRecv(req)
		if msg == nil {
			t.Fatal("post missed unexpected message")
		}
		m.AddUnexpected(msg)
	}
}

// binShape reports a bin's live entries and its window: the live entries
// plus the tombstones not yet reclaimed.
func binShape(q *entQ) (live, window int) {
	for _, ent := range q.items[q.head:] {
		if !ent.removed {
			live++
		}
	}
	return live, len(q.items) - q.head
}

// TestMatcherConstantTimeStructure asserts what makes the two hot cycles
// O(1), exactly, where a stopwatch could only suggest it: whatever the total
// depth, the one bin the operation reads holds one live entry and nothing
// else, an all-exact workload populates no wildcard class (so Arrive
// consults that one bin), and cycling leaves no tombstone backlog — none in
// the bin read, at most a compaction window's worth in an unexpected
// entry's three sibling bins.
func TestMatcherConstantTimeStructure(t *testing.T) {
	for _, depth := range []int{64, 4096} {
		t.Run(fmt.Sprintf("arrive/posted%d", depth), func(t *testing.T) {
			m, cycle := postedCycle(t, depth)
			for i := 0; i < 3*depth; i++ {
				cycle()
			}
			if m.PostedLen() != depth || len(m.posted) != depth {
				t.Fatalf("%d posted in %d bins, want %d in %d", m.PostedLen(), len(m.posted), depth, depth)
			}
			if m.wTag != 0 || m.wSrc != 0 || m.wBoth != 0 {
				t.Fatalf("wildcard classes populated (%d,%d,%d): Arrive would consult more than one bin", m.wTag, m.wSrc, m.wBoth)
			}
			for key, q := range m.posted { // the arrival's bin among them
				if live, _ := binShape(q); live != 1 || len(q.items) != 1 {
					t.Fatalf("bin %x: %d live in %d slots, want 1 in 1", key, live, len(q.items))
				}
			}
		})
		t.Run(fmt.Sprintf("post/unexpected%d", depth), func(t *testing.T) {
			m, req, cycle := unexpectedCycle(t, depth)
			for i := 0; i < 3*depth; i++ {
				cycle()
			}
			if m.UnexpectedLen() != depth || m.PostedLen() != 0 {
				t.Fatalf("depths (%d unexpected, %d posted), want (%d, 0)", m.UnexpectedLen(), m.PostedLen(), depth)
			}
			q := m.unex[mkKey(req.Env.Source, req.Env.Tag, req.Env.Context)]
			if live, _ := binShape(q); live != 1 || len(q.items) != 1 {
				t.Fatalf("the receive's bin: %d live in %d slots, want 1 in 1", live, len(q.items))
			}
			for key, q := range m.unex {
				if live, window := binShape(q); window > 2*live+minCompactWindow {
					t.Fatalf("bin %x: window %d over %d live entries, tombstones are piling up", key, window, live)
				}
			}
		})
	}
}

// TestMatcherBinsBoundedByLiveKeys pins the bin-map bound. A program that
// mints a key per message (halo's tag = step) leaves one drained bin per
// message behind; the maps, and the bins ever allocated, must stay under a
// constant however many keys pass through. A program cycling one fixed key
// must never pay for that bound: its bin stays mapped — the same *entQ, so
// no delete + insert per message — at zero allocations.
func TestMatcherBinsBoundedByLiveKeys(t *testing.T) {
	const cycles, maxBins = 10_000, 8 * binSweepSlack
	var m Matcher
	for tag := 0; tag < cycles; tag++ {
		src := tag % 4
		r := recvReq(src, tag, 0) // post → arrive
		if m.PostRecv(r) != nil || m.Arrive(Envelope{Source: src, Tag: tag}) != r {
			t.Fatalf("tag %d: posted receive not matched by its arrival", tag)
		}
		msg := &InMsg{Env: Envelope{Source: src, Tag: tag, Context: 1}} // unexpected → post
		m.AddUnexpected(msg)
		if m.PostRecv(recvReq(src, tag, 1)) != msg {
			t.Fatalf("tag %d: unexpected message not matched by its receive", tag)
		}
		if bins := len(m.posted) + len(m.unex) + len(m.qFree); bins > maxBins {
			t.Fatalf("after %d distinct tags: %d posted + %d unexpected bins mapped, %d free; want at most %d in all",
				tag+1, len(m.posted), len(m.unex), len(m.qFree), maxBins)
		}
	}
	if m.PostedLen() != 0 || m.UnexpectedLen() != 0 {
		t.Fatalf("depths (%d, %d) after every message matched", m.PostedLen(), m.UnexpectedLen())
	}

	env := Envelope{Source: 1, Tag: 7}
	m.PostRecv(recvReq(1, 7, 0))
	msg := &InMsg{Env: Envelope{Source: 2, Tag: 9, Context: 1}}
	req := recvReq(2, 9, 1)
	m.AddUnexpected(msg)
	postedQ, unexQ := m.posted[mkKey(1, 7, 0)], m.unex[mkKey(2, 9, 1)]
	cycle := func() {
		m.PostRecv(m.Arrive(env))
		m.AddUnexpected(m.PostRecv(req))
	}
	for i := 0; i < cycles; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("fixed-key cycle allocates %.1f objects, want 0", allocs)
	}
	if m.posted[mkKey(1, 7, 0)] != postedQ || m.unex[mkKey(2, 9, 1)] != unexQ {
		t.Error("a fixed key's bin was unmapped or replaced while the program cycled on it")
	}
}

// requireAllocFree warms cycle (bins, freelists, slice capacity) and fails
// if it touches the heap after that.
func requireAllocFree(t *testing.T, what string, cycle func()) {
	t.Helper()
	for i := 0; i < 512; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(500, cycle); allocs != 0 {
		t.Fatalf("steady-state %s allocates %.1f objects/op, want 0", what, allocs)
	}
}

// TestMatcherArriveAllocFree locks the steady-state arrival path at zero
// allocations: Arrive + re-post against 64 posted receives, and the whole
// engine-side eager receive — take a pooled bounce buffer, copy the payload
// in (the transport), match the arrival, copy out to the user buffer,
// recycle the bounce buffer, re-post.
func TestMatcherArriveAllocFree(t *testing.T) {
	_, posted := postedCycle(t, 64)
	requireAllocFree(t, "Arrive/PostRecv", posted)

	var m Matcher
	pool := NewBufPool(nil)
	payload := make([]byte, 256)
	req := recvReq(AnySource, 7, 0)
	req.Buf = make([]byte, 256)
	m.PostRecv(req)
	requireAllocFree(t, "eager receive path", func() {
		data := pool.Get(len(payload))
		copy(data, payload)
		r := m.Arrive(Envelope{Source: 1, Tag: 7, Context: 0})
		if r == nil {
			t.Fatal("eager arrival missed posted receive")
		}
		copy(r.Buf, data)
		pool.Put(data)
		m.PostRecv(r)
	})
}

// TestMatcherUnexpectedAllocFree locks the unexpected-queue cycle
// (arrival enqueued, then matched by a later receive) at zero steady-state
// allocations.
func TestMatcherUnexpectedAllocFree(t *testing.T) {
	var m Matcher
	msg := &InMsg{Env: Envelope{Source: 1, Tag: 3, Context: 0}}
	req := recvReq(AnySource, 3, 0)
	requireAllocFree(t, "unexpected cycle", func() {
		m.AddUnexpected(msg)
		if got := m.PostRecv(req); got != msg {
			t.Fatal("unexpected message not matched")
		}
	})
}

// TestBufPoolRecycles checks class rounding, hit/miss accounting and the
// bytes-recycled counter.
func TestBufPoolRecycles(t *testing.T) {
	acct := NewAcct()
	p := NewBufPool(acct)
	b := p.Get(100)
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("Get(100): len %d cap %d, want 100/128", len(b), cap(b))
	}
	p.Put(b)
	b2 := p.Get(120)
	if cap(b2) != 128 {
		t.Fatalf("recycled Get(120) cap %d, want 128", cap(b2))
	}
	if v := acct.View(); v.Count[PoolHit] != 1 || v.Count[PoolMiss] != 1 {
		t.Fatalf("hit/miss = %d/%d, want 1/1", v.Count[PoolHit], v.Count[PoolMiss])
	}
	if n := acct.View().Count[PoolRecycled]; n != 128 {
		t.Fatalf("bytes recycled = %d, want 128", n)
	}
	// Oversized buffers bypass the pool entirely.
	huge := p.Get(2 << 20)
	p.Put(huge)
	if got := p.Get(2 << 20); &got[0] == &huge[0] {
		t.Fatal("oversized buffer was pooled")
	}
	// A nil pool degrades to plain allocation.
	var np *BufPool
	if n := len(np.Get(64)); n != 64 {
		t.Fatalf("nil pool Get returned %d bytes", n)
	}
	np.Put(b)
}
