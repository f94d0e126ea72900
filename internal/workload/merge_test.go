package workload

import (
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/mpi"
)

// memWorld builds an n-rank world on the reference fabric (the registry
// imports this package, so the test wires the world itself).
func memWorld(n int) *mpi.World {
	s := sim.NewScheduler(1)
	fab := core.NewMemFabric(s, time.Microsecond, 180)
	eps := make([]core.Endpoint, n)
	for i := range eps {
		e := core.NewEngine(s, i, n, core.EngineCosts{}, nil)
		fab.Attach(e)
		eps[i] = e
	}
	return mpi.NewWorld(s, eps)
}

// stableOracle is the merge Run used to perform: concatenate in rank order,
// then sort.SliceStable by (T, Rank).
func stableOracle(envs []*Env) []Event {
	var evs []Event
	for _, e := range envs {
		evs = append(evs, e.evs...)
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.T != b.T {
			return a.T < b.T
		}
		return a.Rank < b.Rank
	})
	return evs
}

// Run's canonical order must be the reflective stable sort's, event for
// event — halo records an exchange and its step at one instant on one
// rank, rpc and allreduce complete many ranks at one instant, so both tie
// rules are exercised. The per-rank streams are captured by wrapping each
// pattern's body.
func TestRunOrderMatchesStableSortOracle(t *testing.T) {
	const ranks = 8
	for _, name := range []string{"halo", "rpc", "allreduce"} {
		t.Run(name, func(t *testing.T) {
			pat, _ := Lookup(name)
			envs := make([]*Env, ranks)
			Register(Pattern{Name: "captured", SLO: pat.SLO, Body: func(e *Env) error {
				envs[e.C.Rank()] = e
				return pat.Body(e)
			}})
			defer delete(patterns, "captured")
			res, err := Run(memWorld(ranks), Config{Pattern: "captured", Ranks: ranks})
			if err != nil {
				t.Fatal(err)
			}
			want := stableOracle(envs)
			if len(want) == 0 || !slices.Equal(res.Trace.Events, want) {
				t.Fatalf("Run ordered %d events differently from sort.SliceStable over the %d recorded", len(res.Trace.Events), len(want))
			}
		})
	}
}

// When one rank records everything (the benchmark's ping-pong) the merged
// stream is the only event-sized buffer the merge may allocate: sized
// exactly, sorted in place, no scratch.
func TestMergeEventsAllocatesOneBuffer(t *testing.T) {
	const n = 50_000
	envs := []*Env{{evs: make([]Event, n)}, {}}
	for i := range envs[0].evs {
		envs[0].evs[i] = Event{T: int64(i / 2), Op: OpStep} // pairs of equal keys
	}
	var got []Event
	if allocs := testing.AllocsPerRun(3, func() { got = mergeEvents(envs) }); allocs != 1 {
		t.Errorf("mergeEvents made %.0f allocations, want the merged stream alone", allocs)
	}
	if len(got) != n || cap(got) != n {
		t.Errorf("merged stream has len %d cap %d, want exactly %d", len(got), cap(got), n)
	}
}
