package core

import "math/bits"

// BufPool recycles byte buffers in power-of-two size classes: eager bounce
// buffers, packet frames, and envelope encode scratch on the receive hot
// path. Recycling is a host-side optimization — pools charge no virtual
// time, so the modeled latencies (anchors, figures) are unchanged — but
// hit/miss and bytes-recycled counters are booked into the owning Acct for
// the trace tool.
//
// Pools are deliberately unsynchronized: each belongs to one rank, and
// every Get and Put runs on that rank's lane. A buffer may still migrate
// between ranks (a bounce buffer is drawn from the sender's pool and
// returned to the receiver's, see Engine.Bounce): Get runs on the drawing
// lane, Put on the receiving lane, and the buffer itself crosses between
// them through Route, which orders the sender's writes before the
// receiver's reads — also when Shard.Parallel runs the lanes on threads.
type BufPool struct {
	acct    *Acct
	classes [poolClasses][][]byte
}

const (
	poolMinShift = 6  // smallest class: 64 B
	poolMaxShift = 20 // largest class: 1 MiB; bigger buffers bypass the pool
	poolClasses  = poolMaxShift - poolMinShift + 1
	poolPerClass = 64 // retained buffers per class; excess is dropped to the GC
)

// Pool counter names booked into the owning Acct.
const (
	PoolHit      = "pool.hit"            // Get satisfied from a free list
	PoolMiss     = "pool.miss"           // Get fell through to make()
	PoolRecycled = "pool.bytes-recycled" // capacity returned via Put
)

// NewBufPool returns an empty pool booking its counters into acct (which
// may be nil for an unaccounted pool).
func NewBufPool(acct *Acct) *BufPool {
	return &BufPool{acct: acct}
}

// classFor maps a capacity to its size class, or -1 when the pool does not
// handle it.
func classFor(n int) int {
	if n <= 0 || n > 1<<poolMaxShift {
		return -1
	}
	c := bits.Len(uint(n-1)) - poolMinShift // ceil(log2(n)) - min
	if c < 0 {
		c = 0
	}
	return c
}

// Get returns a length-n buffer, reusing pooled space when a class fits.
// A nil pool degrades to plain allocation.
func (p *BufPool) Get(n int) []byte {
	if p == nil {
		return make([]byte, n)
	}
	c := classFor(n)
	if c < 0 {
		p.acct.Add(ctrPoolMiss, 1)
		return make([]byte, n)
	}
	if free := p.classes[c]; len(free) > 0 {
		b := free[len(free)-1]
		free[len(free)-1] = nil
		p.classes[c] = free[:len(free)-1]
		p.acct.Add(ctrPoolHit, 1)
		return b[:n]
	}
	p.acct.Add(ctrPoolMiss, 1)
	return make([]byte, n, 1<<(poolMinShift+c))
}

// Put returns b's storage to the pool. Only exact class-sized capacities
// are retained (everything Get hands out qualifies); foreign or oversized
// buffers and overflow beyond the per-class cap fall to the garbage
// collector. Callers must not retain b after Put.
func (p *BufPool) Put(b []byte) {
	if p == nil {
		return
	}
	n := cap(b)
	c := classFor(n)
	if c < 0 || n != 1<<(poolMinShift+c) || len(p.classes[c]) >= poolPerClass {
		return
	}
	p.classes[c] = append(p.classes[c], b[:0])
	p.acct.Add(ctrPoolRecycled, int64(n))
}
