package bench

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// Match microbenchmarks: the receive-side hot path in isolation. Each
// scenario drives the indexed matcher (and, where a speedup is claimed,
// the linear reference oracle on identical work) through the steady-state
// cycle the engine executes per message, and records ns/op plus the
// allocation profile.
//
// The regression gate deliberately compares only hardware-independent
// metrics: allocations per operation (exact, deterministic) and the
// indexed-vs-linear speedup ratio (both sides run on the same machine, so
// the ratio survives CI hardware churn). Absolute ns/op is recorded for
// trajectory plots but never gated on.

// MatchScenario is one measured scenario in BENCH_match.json.
type MatchScenario struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// MatchReport is the machine-readable record cmd/repro writes as
// BENCH_match.json: per-scenario measurements plus indexed-vs-linear
// speedup ratios. The committed copy is the regression baseline CI
// compares against (see checkMatch).
type MatchReport struct {
	Scenarios []MatchScenario    `json:"scenarios"`
	Speedups  map[string]float64 `json:"speedups"`
}

// matchQueue is the method set shared by the indexed matcher and the
// linear oracle; the scenarios are generic over it so both run the exact
// same loop body.
type matchQueue interface {
	PostRecv(*core.Request) *core.InMsg
	Arrive(core.Envelope) *core.Request
	AddUnexpected(*core.InMsg)
}

// benchArrivePosted measures Arrive against 64 posted receives. The
// arrival matches the last-posted pattern, so the linear oracle scans the
// whole queue — the paper's worst case for deep posted queues — while the
// indexed matcher reads one bin. The matched receive is re-posted to keep
// the depth constant.
func benchArrivePosted(mk func() matchQueue) func(b *testing.B) {
	return func(b *testing.B) {
		m := mk()
		const n = 64
		for i := 0; i < n; i++ {
			m.PostRecv(&core.Request{IsRecv: true, Env: core.Envelope{Source: i % 4, Tag: i, Context: 0}})
		}
		env := core.Envelope{Source: (n - 1) % 4, Tag: n - 1, Context: 0}
		cycle := func() {
			r := m.Arrive(env)
			if r == nil {
				b.Fatal("arrival missed posted receive")
			}
			m.PostRecv(r)
		}
		for i := 0; i < 512; i++ { // settle bins, freelists, slice capacity
			cycle()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
	}
}

// benchPostUnexpected measures PostRecv against 256 queued unexpected
// messages, matching the last-queued one (again the linear worst case).
// The matched message is re-queued to keep the depth constant.
func benchPostUnexpected(mk func() matchQueue) func(b *testing.B) {
	return func(b *testing.B) {
		m := mk()
		const n = 256
		msgs := make([]*core.InMsg, n)
		for i := 0; i < n; i++ {
			msgs[i] = &core.InMsg{Env: core.Envelope{Source: i % 4, Tag: i, Context: 0, Seq: uint64(i + 1)}}
			m.AddUnexpected(msgs[i])
		}
		req := &core.Request{IsRecv: true, Env: core.Envelope{Source: (n - 1) % 4, Tag: n - 1, Context: 0}}
		cycle := func() {
			got := m.PostRecv(req)
			if got == nil {
				b.Fatal("post missed unexpected message")
			}
			m.AddUnexpected(got)
		}
		for i := 0; i < 512; i++ {
			cycle()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle()
		}
	}
}

// benchEagerRecvPath composes the full engine-side eager receive: take a
// pooled bounce buffer, copy the payload in (the transport), match the
// arrival, copy out to the user buffer, recycle the bounce buffer, and
// re-post. This is the path the acceptance criterion pins at zero
// allocations per operation.
func benchEagerRecvPath(b *testing.B) {
	var m core.Matcher
	pool := core.NewBufPool(nil)
	payload := make([]byte, 256)
	req := &core.Request{
		IsRecv: true,
		Env:    core.Envelope{Source: core.AnySource, Tag: 7, Context: 0},
		Buf:    make([]byte, 256),
	}
	m.PostRecv(req)
	env := core.Envelope{Source: 1, Tag: 7, Context: 0}
	cycle := func() {
		data := pool.Get(len(payload))
		copy(data, payload)
		r := m.Arrive(env)
		if r == nil {
			b.Fatal("eager arrival missed posted receive")
		}
		copy(r.Buf, data)
		pool.Put(data)
		m.PostRecv(r)
	}
	for i := 0; i < 512; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

func runMatchScenario(name string, fn func(b *testing.B)) MatchScenario {
	r := testing.Benchmark(fn)
	return MatchScenario{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// MatchBench runs every matching scenario and derives the
// indexed-vs-linear speedup ratios.
func MatchBench(o Opts) (MatchReport, error) {
	mkIdx := func() matchQueue { return &core.Matcher{} }
	mkLin := func() matchQueue { return &core.LinearMatcher{} }

	rep := MatchReport{Speedups: map[string]float64{}}
	pairs := []struct {
		name string
		fn   func(func() matchQueue) func(*testing.B)
	}{
		{"arrive/posted64", benchArrivePosted},
		{"post/unexpected256", benchPostUnexpected},
	}
	for _, p := range pairs {
		idx := runMatchScenario(p.name+"/indexed", p.fn(mkIdx))
		lin := runMatchScenario(p.name+"/linear", p.fn(mkLin))
		rep.Scenarios = append(rep.Scenarios, idx, lin)
		if idx.NsPerOp > 0 {
			rep.Speedups[p.name] = lin.NsPerOp / idx.NsPerOp
		}
	}
	rep.Scenarios = append(rep.Scenarios, runMatchScenario("eager/recv-path", benchEagerRecvPath))
	return rep, nil
}

// matchSpeedup is one entry of MatchReport.Speedups, pulled out of the map
// so the table and the gate walk the ratios in name order.
type matchSpeedup struct {
	name  string
	ratio float64
}

func sortedSpeedups(m map[string]float64) []matchSpeedup {
	out := make([]matchSpeedup, 0, len(m))
	for k, v := range m {
		out = append(out, matchSpeedup{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// FormatMatch renders the report as a table.
func FormatMatch(r MatchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matching microbenchmarks\n")
	fmt.Fprintf(&b, "  %-28s %12s %10s %10s\n", "scenario", "ns/op", "allocs/op", "B/op")
	for _, s := range r.Scenarios {
		fmt.Fprintf(&b, "  %-28s %12.1f %10d %10d\n", s.Name, s.NsPerOp, s.AllocsPerOp, s.BytesPerOp)
	}
	for _, sp := range sortedSpeedups(r.Speedups) {
		fmt.Fprintf(&b, "  %-28s %11.1fx indexed over linear\n", sp.name, sp.ratio)
	}
	return b.String()
}

// Static floors the gate enforces regardless of baseline: the acceptance
// bar for the indexed matcher, below which the rewrite has regressed to
// linear behavior no matter what the committed baseline says.
const (
	matchMinSpeedup  = 2.0               // arrive at 64 posted receives
	matchGateSpeedup = "arrive/posted64" // the scenario the floor applies to
	matchGateAlloc   = "eager/recv-path" // must stay allocation-free
)

// checkMatch gates a fresh report: the static floors always, and against a
// baseline the allocation counts exactly (they are deterministic, so any
// change means the hot path changed) and the speedup ratios within suiteTol.
// Absolute ns/op is never compared — it is hardware-bound.
func checkMatch(cur MatchReport, base *MatchReport) []string {
	var fails []string
	allocs, found := int64(0), false
	for _, s := range cur.Scenarios {
		if s.Name == matchGateAlloc {
			allocs, found = s.AllocsPerOp, true
		}
	}
	if !found {
		fails = append(fails, fmt.Sprintf("scenario %s missing from report", matchGateAlloc))
	} else if allocs != 0 {
		fails = append(fails, fmt.Sprintf("%s allocates %d objects/op, want 0", matchGateAlloc, allocs))
	}
	if sp, ok := cur.Speedups[matchGateSpeedup]; !ok {
		fails = append(fails, fmt.Sprintf("speedup %s missing from report", matchGateSpeedup))
	} else if sp < matchMinSpeedup {
		fails = append(fails, fmt.Sprintf("%s speedup %.2fx below the %.1fx floor", matchGateSpeedup, sp, matchMinSpeedup))
	}
	if base == nil {
		return fails
	}
	fails = append(fails, drift("scenario", cur.Scenarios, base.Scenarios,
		func(s MatchScenario) string { return s.Name }, 0,
		lower("allocs/op", func(s MatchScenario) float64 { return float64(s.AllocsPerOp) }))...)
	return append(fails, drift("speedup", sortedSpeedups(cur.Speedups), sortedSpeedups(base.Speedups),
		func(s matchSpeedup) string { return s.name }, suiteTol,
		higher("indexed over linear", func(s matchSpeedup) float64 { return s.ratio }))...)
}
