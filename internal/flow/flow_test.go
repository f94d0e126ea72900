package flow

import "testing"

func TestOwedPiggybackAndFlush(t *testing.T) {
	o := NewOwed(2, 100)
	if o.Add(1, 40) {
		t.Fatal("below threshold")
	}
	if got := o.Take(1); got != 40 {
		t.Fatalf("take = %d", got)
	}
	if o.Balance(1) != 0 {
		t.Fatal("take must consume the balance")
	}
	o.Add(1, 60)
	if !o.Add(1, 40) {
		t.Fatal("threshold reached, must flush")
	}
	if got := o.Take(1); got != 100 {
		t.Fatalf("take = %d", got)
	}
}

func TestOwedNoFlushWhenDisabled(t *testing.T) {
	o := NewOwed(1, 0)
	if o.Add(0, 1<<20) {
		t.Fatal("flushAt 0 means piggyback only")
	}
}
