package coll

import (
	"strings"
	"testing"
)

// TestSelect pins the auto-selector's decisions: algorithm choice must
// track payload size, communicator size, and the hardware-broadcast
// capability exactly as the threshold constants promise.
func TestSelect(t *testing.T) {
	cases := []struct {
		name string
		op   string
		h    Hint
		want string
	}{
		{"bcast small hw", "bcast", Hint{Bytes: 1 << 10, Ranks: 8, HW: true}, "hardware"},
		{"bcast at hw limit", "bcast", Hint{Bytes: HWBcastMax, Ranks: 8, HW: true}, "hardware"},
		{"bcast large hw", "bcast", Hint{Bytes: HWBcastMax + 1, Ranks: 8, HW: true}, "pipelined"},
		{"bcast small cluster", "bcast", Hint{Bytes: 1 << 10, Ranks: 8}, "binomial"},
		{"bcast large cluster", "bcast", Hint{Bytes: 128 << 10, Ranks: 8}, "pipelined"},
		{"bcast large pair", "bcast", Hint{Bytes: 128 << 10, Ranks: 2}, "binomial"},
		{"barrier hw", "barrier", Hint{Ranks: 8, HW: true}, "tree"},
		{"barrier cluster", "barrier", Hint{Ranks: 8}, "dissemination"},
		{"allreduce small", "allreduce", Hint{Bytes: 256, Elem: 8, Ranks: 8}, "reduce-bcast"},
		{"allreduce large elem", "allreduce", Hint{Bytes: 64 << 10, Elem: 8, Ranks: 8}, "rsag"},
		{"allreduce large opaque", "allreduce", Hint{Bytes: 64 << 10, Ranks: 8}, "rdbl"},
		{"allreduce large odd", "allreduce", Hint{Bytes: 64 << 10, Elem: 8, Ranks: 5}, "reduce-bcast"},
		{"allgather small", "allgather", Hint{Bytes: 256, Ranks: 8}, "gather-bcast"},
		{"allgather large", "allgather", Hint{Bytes: 64 << 10, Ranks: 8}, "ring"},
		{"alltoall pow2", "alltoall", Hint{Bytes: 1 << 10, Ranks: 8}, "pairwise"},
		{"alltoall odd", "alltoall", Hint{Bytes: 1 << 10, Ranks: 5}, "linear-shift"},
		{"alltoall pair", "alltoall", Hint{Bytes: 1 << 10, Ranks: 2}, "linear-shift"},
		{"self comm", "bcast", Hint{Bytes: 1 << 10, Ranks: 1}, "binomial"},
	}
	for _, tc := range cases {
		a := Select(tc.op, tc.h)
		if a == nil {
			t.Errorf("%s: Select(%s, %+v) = nil", tc.name, tc.op, tc.h)
			continue
		}
		if a.Name != tc.want {
			t.Errorf("%s: Select(%s, %+v) = %s, want %s", tc.name, tc.op, tc.h, a.Name, tc.want)
		}
	}
}

// TestApplicability pins the gating rules a forced or selected algorithm
// must satisfy.
func TestApplicability(t *testing.T) {
	hw, _ := Lookup("bcast", "hardware")
	if hw.ok(Hint{Ranks: 8}) {
		t.Error("hardware bcast must not apply without the hardware")
	}
	if !hw.ok(Hint{Ranks: 8, HW: true}) {
		t.Error("hardware bcast must apply with the hardware")
	}
	rdbl, _ := Lookup("allreduce", "rdbl")
	if rdbl.ok(Hint{Bytes: 64, Ranks: 6}) {
		t.Error("recursive doubling must not apply to non-power-of-two sizes")
	}
	rsag, _ := Lookup("allreduce", "rsag")
	if rsag.ok(Hint{Bytes: 64 << 10, Ranks: 8}) {
		t.Error("reduce-scatter+allgather must not apply without an element size")
	}
	if rsag.ok(Hint{Bytes: 16, Elem: 8, Ranks: 8}) {
		t.Error("reduce-scatter+allgather must not apply with fewer elements than ranks")
	}
	if !rsag.ok(Hint{Bytes: 64 << 10, Elem: 8, Ranks: 8}) {
		t.Error("reduce-scatter+allgather must apply to a large 8-byte-lane vector")
	}
}

// TestRegistry pins the registry's shape: every operation registers a
// restriction-free algorithm first, so the fallback always applies.
func TestRegistry(t *testing.T) {
	for _, op := range []string{"bcast", "barrier", "gather", "gatherv", "scatter",
		"scatterv", "allgather", "allgatherv", "reduce", "allreduce",
		"reducescatter", "scan", "exscan", "alltoall", "alltoallv"} {
		algs := Names(op)
		if len(algs) == 0 {
			t.Errorf("no algorithms registered for %q", op)
			continue
		}
		first, _ := Lookup(op, algs[0])
		if first.NeedsHW || first.Pow2Only || first.NeedsElem {
			t.Errorf("%s: first-registered %q is restricted; the fallback must always apply", op, algs[0])
		}
	}
	if _, ok := Lookup("bcast", "no-such"); ok {
		t.Error("Lookup invented an algorithm")
	}
	found := false
	for _, op := range Ops() {
		if op == "bcast" {
			found = true
		}
	}
	if !found {
		t.Error("Ops() misses bcast")
	}
}

func TestParseTuning(t *testing.T) {
	tn, err := ParseTuning("bcast=pipelined, allreduce=rsag")
	if err != nil {
		t.Fatalf("ParseTuning: %v", err)
	}
	if tn["bcast"] != "pipelined" || tn["allreduce"] != "rsag" {
		t.Fatalf("ParseTuning = %v", tn)
	}
	if got := tn.String(); got != "allreduce=rsag,bcast=pipelined" {
		t.Fatalf("String() = %q", got)
	}
	if tn, err = ParseTuning(""); err != nil || tn != nil {
		t.Fatalf("empty tuning: %v, %v", tn, err)
	}
	for _, bad := range []struct{ in, wantErr string }{
		{"bcast", "want op=alg"},
		{"nosuchop=linear", "unknown collective"},
		{"bcast=nosuchalg", "unknown bcast algorithm"},
	} {
		if _, err := ParseTuning(bad.in); err == nil || !strings.Contains(err.Error(), bad.wantErr) {
			t.Errorf("ParseTuning(%q) = %v, want %q", bad.in, err, bad.wantErr)
		}
	}
}

// FuzzParseTuning: any string is a tuning of registered algorithms that its
// own String() parses back to, or an error, never a panic.
func FuzzParseTuning(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		tn, err := ParseTuning(spec)
		if err != nil {
			return
		}
		for op, alg := range tn {
			if _, ok := Lookup(op, alg); !ok {
				t.Fatalf("ParseTuning(%q) accepted unregistered %s=%s", spec, op, alg)
			}
		}
		if back, err := ParseTuning(tn.String()); err != nil || back.String() != tn.String() {
			t.Fatalf("ParseTuning(%q) = %v; its String() parses to %v, %v", spec, tn, back, err)
		}
	})
}
