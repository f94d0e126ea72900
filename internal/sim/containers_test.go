package sim

import (
	"slices"
	"testing"
)

// A popped slot is cleared at once (a popped element, and whatever it
// points at, may not stay reachable), a drained queue rewinds, and
// one-in-one-out traffic reuses the array instead of creeping along it.
func TestQueue(t *testing.T) {
	var q Queue[*int]
	vals := make([]*int, 64)
	for i := range vals {
		vals[i] = new(int)
	}
	next := 0
	for i := 0; i < len(vals); i += 2 {
		q.Push(vals[i])
		q.Push(vals[i+1])
		if got := q.Pop(); got != vals[next] {
			t.Fatalf("pop %d returned %p, want %p", next, got, vals[next])
		}
		next++
	}
	for i, v := range q.q[:q.head] {
		if v != nil {
			t.Fatalf("consumed slot %d still holds its element", i)
		}
	}
	for q.Len() > 0 {
		q.Pop()
	}
	grown := cap(q.q)
	for i := 0; i < 10_000; i++ {
		q.Push(vals[0])
		q.Pop()
	}
	if slot0 := q.q[:1][0]; cap(q.q) != grown || q.head != 0 || slot0 != nil {
		t.Fatalf("after 10^4 one-in-one-out cycles: cap %d (was %d), head %d, slot 0 %v", cap(q.q), grown, q.head, slot0)
	}
}

// Filter keeps order, sees every waiting element once (and only those), and
// clears the slots it frees, the consumed prefix included.
func TestQueueFilter(t *testing.T) {
	var q Queue[*int]
	vals := make([]*int, 10)
	for i := range vals {
		vals[i] = new(int)
		*vals[i] = i
		q.Push(vals[i])
	}
	q.Pop()
	q.Pop()
	var seen []int
	q.Filter(func(v *int) bool {
		seen = append(seen, *v)
		return *v%3 != 0
	})
	if want := []int{2, 3, 4, 5, 6, 7, 8, 9}; !slices.Equal(seen, want) {
		t.Fatalf("Filter saw %v, want %v", seen, want)
	}
	var kept []int
	for v := range q.All() {
		kept = append(kept, *v)
	}
	if want := []int{2, 4, 5, 7, 8}; !slices.Equal(kept, want) || q.Len() != len(want) {
		t.Fatalf("kept %v (Len %d), want %v", kept, q.Len(), want)
	}
	for i, v := range q.q[len(q.q):cap(q.q)] {
		if v != nil {
			t.Fatalf("freed slot %d still holds %d", len(q.q)+i, *v)
		}
	}
}

// A free list hands back what it was given, newest first, and parks no more
// than its bound.
func TestFreeListBounded(t *testing.T) {
	for _, max := range []int{0, 3} {
		l := FreeList[int]{Max: max}
		if l.Get() != nil {
			t.Fatal("empty list returned a record")
		}
		bound := max
		if bound == 0 {
			bound = DefaultFreeMax
		}
		recs := make([]*int, bound+5)
		for i := range recs {
			recs[i] = new(int)
			l.Put(recs[i])
		}
		if l.Len() != bound {
			t.Fatalf("Max %d: %d parked after %d puts, want %d", max, l.Len(), len(recs), bound)
		}
		for i := bound - 1; i >= 0; i-- {
			if got := l.Get(); got != recs[i] {
				t.Fatalf("Max %d: Get returned %p, want record %d", max, got, i)
			}
		}
		if l.Get() != nil || l.Len() != 0 {
			t.Fatalf("Max %d: drained list still returns records", max)
		}
		l.Put(recs[0])
		if n := testing.AllocsPerRun(1000, func() { l.Put(l.Get()) }); n != 0 {
			t.Fatalf("Max %d: a warm Get/Put allocates %v objects", max, n)
		}
	}
}
