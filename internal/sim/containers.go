package sim

import (
	"iter"
	"slices"
)

// The two containers every wire shares. Both belong to one lane: they are
// not safe for concurrent use, and a record or element crossing lanes does
// so through Route, never through a shared container.

// Queue is the FIFO every transport, socket and flow-control queue uses. It
// keeps a consumed-prefix index instead of re-slicing the head (`q = q[1:]`
// shrinks capacity by one per pop, so the next append reallocates and leaves
// every popped element reachable through the old array), zeroes each popped
// slot and rewinds the backing array once drained, so steady-state use
// neither reallocates nor retains what it handed out. The zero value is
// empty.
type Queue[T any] struct {
	q    []T
	head int // consumed prefix of q
}

// Push appends v.
func (f *Queue[T]) Push(v T) { f.q = append(f.q, v) }

// Front returns the oldest element without removing it; the queue must not
// be empty.
func (f *Queue[T]) Front() T { return f.q[f.head] }

// Pop removes and returns the oldest element, the zero T when empty.
func (f *Queue[T]) Pop() (v T) {
	if f.head == len(f.q) {
		return v
	}
	var zero T
	v, f.q[f.head] = f.q[f.head], zero
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return v
}

// Len reports the number of elements waiting.
func (f *Queue[T]) Len() int { return len(f.q) - f.head }

// Filter removes, in place and in order, every waiting element keep
// rejects, zeroing the slots it frees. keep may act on what it rejects.
func (f *Queue[T]) Filter(keep func(T) bool) {
	kept := f.q[:0]
	for _, v := range f.q[f.head:] {
		if keep(v) {
			kept = append(kept, v)
		}
	}
	clear(f.q[len(kept):])
	f.q, f.head = kept, 0
}

// All yields the waiting elements, oldest first.
func (f *Queue[T]) All() iter.Seq[T] { return slices.Values(f.q[f.head:]) }

// FreeList is the one pool behind every record the model recycles instead
// of allocating per message (DESIGN §9): a bounded stack of idle records.
// A record is typically drawn on the lane where its journey starts and put
// back on the lane where it ends, into that lane's list; traffic flowing
// both ways keeps the lists balanced, and the bound caps the one that would
// not. The zero value is an empty list bounded by DefaultFreeMax.
type FreeList[T any] struct {
	// Max bounds the idle records kept (zero: DefaultFreeMax); a Put
	// beyond it leaves the record to the garbage collector.
	Max  int
	idle []*T
}

// DefaultFreeMax bounds a FreeList whose Max is zero.
const DefaultFreeMax = 64

// Get pops an idle record, or returns nil when there is none.
func (l *FreeList[T]) Get() *T {
	n := len(l.idle) - 1
	if n < 0 {
		return nil
	}
	x := l.idle[n]
	l.idle[n] = nil
	l.idle = l.idle[:n]
	return x
}

// Put parks x for a later Get. The caller has already cleared whatever x
// must not keep reachable.
func (l *FreeList[T]) Put(x *T) {
	max := l.Max
	if max == 0 {
		max = DefaultFreeMax
	}
	if len(l.idle) < max {
		l.idle = append(l.idle, x)
	}
}

// Len reports how many idle records are parked.
func (l *FreeList[T]) Len() int { return len(l.idle) }

// All yields the idle records (for audits).
func (l *FreeList[T]) All() iter.Seq[*T] { return slices.Values(l.idle) }
