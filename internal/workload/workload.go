// Package workload generates macro-level MPI traffic and records it as
// replayable traces. Where internal/bench measures single operations, a
// workload drives a canonical application pattern — 2-D halo exchange,
// stencil iteration, all-to-all shuffle, an allreduce training loop, or
// closed-loop many-client RPC fan-in — and logs every completion as a
// trace event on the virtual clock.
//
// Because the simulator is deterministic, a trace is a pure function of
// its Config: recording the same Config twice yields byte-identical
// traces, and Replay re-runs the Config and byte-compares the fresh event
// stream against the recording, reporting the first divergent event with
// rank/time/op context. DESIGN.md §12 documents the model and the binary
// trace format.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/mpi"
)

// Config describes one workload run. The zero value is not runnable; use
// Norm to fill defaults. By convention Seed seeds both the world spec and
// the workload's per-rank RNG streams, so a (backend, Config) pair pins
// the whole timeline.
type Config struct {
	// Pattern names a registered pattern (see Names).
	Pattern string
	// Backend is the registry key the trace was recorded on. Provenance
	// only: replay may rebuild the world elsewhere to compare backends.
	Backend string
	// Ranks is the world size (default 8).
	Ranks int
	// Lanes is the lane count the recording ran on. Provenance only:
	// determinism makes traces kernel-independent.
	Lanes int
	// Steps is the iteration count per rank; for rpc, requests per
	// client (default 20).
	Steps int
	// Bytes is the per-message payload size (default 1024).
	Bytes int
	// Seed seeds the per-rank RNG streams (default 1).
	Seed int64
	// Rate is the rpc client's mean think rate: requests per virtual
	// second per client, were replies instant (default 2000).
	Rate float64
	// Compute is the modeled per-step compute charge (default 20µs);
	// for rpc it is the server's per-request service time.
	Compute time.Duration
}

// Norm returns the config with defaults filled in.
func (c Config) Norm() Config {
	if c.Ranks == 0 {
		c.Ranks = 8
	}
	if c.Steps == 0 {
		c.Steps = 20
	}
	if c.Bytes == 0 {
		c.Bytes = 1024
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Rate == 0 {
		c.Rate = 2000
	}
	if c.Compute == 0 {
		c.Compute = 20 * time.Microsecond
	}
	return c
}

// Pattern is a registered workload body. SLO designates the op whose Dur
// samples feed the latency percentiles in Summary.
type Pattern struct {
	// Name is the registry key.
	Name string
	// SLO is the op class scored by Summarize.
	SLO Op
	// Doc is a one-line description for CLI help and docs.
	Doc string
	// Body runs the pattern on one rank.
	Body func(*Env) error
}

var patterns = map[string]Pattern{}

// Register adds a pattern to the registry; it panics on duplicates, like
// the platform registry.
func Register(p Pattern) {
	if _, dup := patterns[p.Name]; dup {
		panic("workload: duplicate pattern " + p.Name)
	}
	patterns[p.Name] = p
}

// Names lists the registered patterns, sorted.
func Names() []string {
	out := make([]string, 0, len(patterns))
	for n := range patterns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup finds a registered pattern by name.
func Lookup(name string) (Pattern, bool) {
	p, ok := patterns[name]
	return p, ok
}

// Env is the per-rank execution context a pattern body runs in.
type Env struct {
	// C is the rank's world communicator.
	C *mpi.Comm
	// Cfg is the normalized run configuration.
	Cfg Config
	// RNG is this rank's seeded stream (rank-disjoint from the others).
	RNG *rand.Rand

	evs []Event
}

// Record logs a completed operation at the current virtual time; start is
// the op-defined begin instant, so Dur = now − start.
func (e *Env) Record(op Op, peer, tag, bytes int, start time.Duration) {
	now := e.C.Wtime()
	e.evs = append(e.evs, Event{
		T:     int64(now),
		Rank:  int32(e.C.Rank()),
		Op:    op,
		Peer:  int32(peer),
		Tag:   int32(tag),
		Bytes: uint32(bytes),
		Dur:   int64(now - start),
	})
}

// Result bundles a recorded run: the trace, the launch report, and the
// SLO summary.
type Result struct {
	// Trace is the canonical recording.
	Trace *Trace
	// Report is the underlying launch report (per-rank finish times).
	Report *mpi.Report
	// Summary scores the SLO op stream.
	Summary Summary
}

// Run records the configured workload on a freshly built world. The
// world's size must match cfg.Ranks. The returned trace's event stream is
// merged across ranks and sorted by (T, Rank) with per-rank order
// preserved, which makes the encoding canonical.
func Run(w *mpi.World, cfg Config) (*Result, error) {
	cfg = cfg.Norm()
	pat, ok := Lookup(cfg.Pattern)
	if !ok {
		return nil, fmt.Errorf("workload: unknown pattern %q (registered: %s)",
			cfg.Pattern, strings.Join(Names(), ", "))
	}
	if w.Size() != cfg.Ranks {
		return nil, fmt.Errorf("workload: world has %d ranks, config wants %d", w.Size(), cfg.Ranks)
	}
	if !(cfg.Rate > 0) || math.IsInf(cfg.Rate, 1) {
		return nil, fmt.Errorf("workload: rate must be positive and finite, got %g", cfg.Rate)
	}
	envs := make([]*Env, cfg.Ranks)
	var mu sync.Mutex
	rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
		e := &Env{C: c, Cfg: cfg, RNG: rand.New(rand.NewSource(cfg.Seed<<20 + int64(c.Rank())))}
		mu.Lock()
		envs[c.Rank()] = e
		mu.Unlock()
		return pat.Body(e)
	})
	if err != nil {
		return nil, err
	}
	for i, e := range rep.Errs {
		if e != nil {
			return nil, fmt.Errorf("workload %s: rank %d: %w", cfg.Pattern, i, e)
		}
	}
	tr := &Trace{Cfg: cfg, Events: mergeEvents(envs)}
	return &Result{Trace: tr, Report: rep, Summary: Summarize(tr, rep.MaxRankElapsed)}, nil
}

// mergeEvents returns the ranks' recordings as the canonical stream: by
// (T, Rank), each rank's own order kept among equal keys. The stream is one
// exactly sized buffer, sorted in place by a comparison the compiler sees.
func mergeEvents(envs []*Env) []Event {
	n := 0
	for _, e := range envs {
		n += len(e.evs)
	}
	evs := make([]Event, 0, n)
	for _, e := range envs {
		evs = append(evs, e.evs...)
	}
	slices.SortStableFunc(evs, func(a, b Event) int {
		if a.T != b.T {
			return cmp.Compare(a.T, b.T)
		}
		return cmp.Compare(a.Rank, b.Rank)
	})
	return evs
}

// Replay re-drives a recorded trace's workload on w and verifies the run
// reproduces the recording exactly. On mismatch it returns the fresh
// Result together with a *Divergence error naming the first divergent
// event. The world may run a different kernel (lanes/parallel) than the
// recording — per-rank timelines are kernel-independent, so the streams
// must still match byte for byte.
func Replay(w *mpi.World, tr *Trace) (*Result, error) {
	res, err := Run(w, tr.Cfg)
	if err != nil {
		return nil, err
	}
	if div := Diff(tr, res.Trace); div != nil {
		return res, div
	}
	return res, nil
}

// Summary scores a trace's SLO op stream: latency percentiles over the
// designated op's Dur samples plus throughput over the run's elapsed
// virtual time.
type Summary struct {
	// Pattern is the scored pattern name.
	Pattern string
	// Events is the number of SLO-op completions scored.
	Events int
	// ElapsedUS is the slowest rank's virtual finish time in µs.
	ElapsedUS float64
	// P50US, P99US, and P999US are latency percentiles in µs.
	P50US  float64
	P99US  float64
	P999US float64
	// OpsPerSec is SLO completions per virtual second.
	OpsPerSec float64
	// MBPerSec is SLO payload megabytes per virtual second.
	MBPerSec float64
}

// Summarize scores tr's SLO op stream against the run's elapsed virtual
// time.
func Summarize(tr *Trace, elapsed time.Duration) Summary {
	pat, _ := Lookup(tr.Cfg.Pattern)
	var durs []float64
	var bytes int64
	for _, ev := range tr.Events {
		if ev.Op != pat.SLO {
			continue
		}
		durs = append(durs, float64(ev.Dur)/float64(time.Microsecond))
		bytes += int64(ev.Bytes)
	}
	sort.Float64s(durs)
	s := Summary{
		Pattern:   tr.Cfg.Pattern,
		Events:    len(durs),
		ElapsedUS: float64(elapsed) / float64(time.Microsecond),
		P50US:     Percentile(durs, 0.50),
		P99US:     Percentile(durs, 0.99),
		P999US:    Percentile(durs, 0.999),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		s.OpsPerSec = float64(len(durs)) / sec
		s.MBPerSec = float64(bytes) / 1e6 / sec
	}
	return s
}

// Percentile is the nearest-rank percentile p (in [0, 1]) of a sorted
// sample; 0 if the sample is empty.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1)+0.5)]
}
