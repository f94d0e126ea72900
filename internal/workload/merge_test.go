package workload

import (
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/mpi"
)

// memWorld builds an n-rank world on the reference fabric, block-mapped
// onto lanes (the registry imports this package, so the test wires the
// world itself).
func memWorld(n, lanes int) *mpi.World {
	s := sim.NewKernel(1, lanes, n, time.Microsecond, 0)
	fab := core.NewMemFabric(s, time.Microsecond, 180)
	eps := make([]core.Endpoint, n)
	for i := range eps {
		e := core.NewEngine(s.Node(i, n), i, n, core.EngineCosts{})
		fab.Attach(e)
		eps[i] = e
	}
	return mpi.NewWorld(s, eps)
}

// stableOracle is the merge Run used to perform: concatenate the per-rank
// recordings in rank order, then sort.SliceStable by (T, Rank).
func stableOracle(ranks []*laneLog) []Event {
	var evs []Event
	for _, l := range ranks {
		evs = l.appendTo(evs)
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

// Run's canonical order must be the reflective stable sort's over the
// per-rank streams, event for event, however many ranks share a lane's log
// — halo records an exchange and its step at one instant on one rank, rpc
// and allreduce complete many ranks at one instant, so both tie rules are
// exercised. The per-rank streams are the logs of a run with one rank per
// lane, captured by wrapping each pattern's body.
func TestRunOrderMatchesStableSortOracle(t *testing.T) {
	const ranks = 8
	for _, name := range []string{"halo", "rpc", "allreduce"} {
		t.Run(name, func(t *testing.T) {
			pat, _ := Lookup(name)
			logs := make([]*laneLog, ranks)
			Register(Pattern{Name: "captured", SLO: pat.SLO, Body: func(e *Env) error {
				logs[e.C.Rank()] = e.log
				return pat.Body(e)
			}})
			defer delete(patterns, "captured")
			cfg := Config{Pattern: "captured", Ranks: ranks}
			if _, err := Run(memWorld(ranks, ranks), cfg); err != nil {
				t.Fatal(err)
			}
			for r, l := range logs {
				for _, ev := range l.appendTo(nil) {
					if int(ev.Rank) != r {
						t.Fatalf("rank %d's lane log holds an event of rank %d", r, ev.Rank)
					}
				}
			}
			want := stableOracle(logs)
			for _, lanes := range []int{1, 2} {
				res, err := Run(memWorld(ranks, lanes), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || !slices.Equal(res.Trace.Events, want) {
					t.Fatalf("%d lanes: Run ordered %d events differently from sort.SliceStable over the %d recorded",
						lanes, len(res.Trace.Events), len(want))
				}
			}
		})
	}
}

// Recording copies nothing: a lane's log grows in chunks, so recording
// 50 000 events (the benchmark's ping-pong, on one lane) allocates those
// events and at most one chunk more. The merged stream is then the only
// event-sized buffer the merge may allocate: sized exactly, sorted in
// place, no scratch.
func TestMergeEventsAllocatesOneBuffer(t *testing.T) {
	// On one P, as testing.AllocsPerRun measures: the runtime's own work
	// (a timer re-armed, a new M for an idle P) then cannot allocate inside
	// the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 50_000
	logs := make([]laneLog, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		logs[0].add(Event{T: int64(i / 2), Op: OpStep}) // pairs of equal keys
	}
	runtime.ReadMemStats(&after)
	size := uint64(unsafe.Sizeof(Event{}))
	if got, limit := after.TotalAlloc-before.TotalAlloc, (n+maxChunk)*size; got > limit {
		t.Errorf("recording %d events allocated %d B, want at most %d (the events and one %d-event chunk)",
			n, got, limit, maxChunk)
	}
	var got []Event
	if allocs := testing.AllocsPerRun(3, func() { got = mergeEvents(logs) }); allocs != 1 {
		t.Errorf("mergeEvents made %.0f allocations, want the merged stream alone", allocs)
	}
	if len(got) != n || cap(got) != n {
		t.Errorf("merged stream has len %d cap %d, want exactly %d", len(got), cap(got), n)
	}
}
