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

	log *laneLog // the rank's lane's recording, shared with its lane-mates
}

// Record logs a completed operation at the current virtual time; start is
// the op-defined begin instant, so Dur = now − start.
func (e *Env) Record(op Op, peer, tag, bytes int, start time.Duration) {
	now := e.C.Wtime()
	e.log.add(Event{
		T:     int64(now),
		Rank:  int32(e.C.Rank()),
		Op:    op,
		Peer:  int32(peer),
		Tag:   int32(tag),
		Bytes: uint32(bytes),
		Dur:   int64(now - start),
	})
}

// A laneLog's chunks hold 64 events, doubling up to 4 096: a short
// recording fits in one, and the last chunk's unused tail stays small.
const firstChunk, maxChunk = 64, 4096

// laneLog is one sim lane's recording: what its ranks record, in the order
// they record it. Only the lane's own procs append to it, and the lane's
// clock never goes back, so the log is in T order except for same-instant
// ties between ranks. It grows in chunks, so no recorded event is copied
// before the merge.
type laneLog struct {
	full [][]Event // filled chunks, oldest first
	cur  []Event   // the chunk being filled
	n    int       // events recorded
}

// add appends ev, opening a chunk when the current one is full.
func (l *laneLog) add(ev Event) {
	if len(l.cur) == cap(l.cur) {
		if l.cur != nil {
			l.full = append(l.full, l.cur)
		}
		l.cur = make([]Event, 0, min(max(2*cap(l.cur), firstChunk), maxChunk))
	}
	l.cur = append(l.cur, ev)
	l.n++
}

// appendTo appends the recording to dst in record order.
func (l *laneLog) appendTo(dst []Event) []Event {
	for _, c := range l.full {
		dst = append(dst, c...)
	}
	return append(dst, l.cur...)
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
	lanes := 1
	if sh := w.S.Shard(); sh != nil {
		lanes = sh.Lanes()
	}
	logs := make([]laneLog, lanes)
	rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
		return pat.Body(&Env{C: c, Cfg: cfg, RNG: rand.New(rand.NewSource(cfg.Seed<<20 + int64(c.Rank()))),
			log: &logs[w.Sched(c.Rank()).LaneID()]})
	})
	if err != nil {
		return nil, err
	}
	for i, e := range rep.Errs {
		if e != nil {
			return nil, fmt.Errorf("workload %s: rank %d: %w", cfg.Pattern, i, e)
		}
	}
	tr := &Trace{Cfg: cfg, Events: mergeEvents(logs)}
	return &Result{Trace: tr, Report: rep, Summary: Summarize(tr, rep.MaxRankElapsed)}, nil
}

// mergeEvents returns the lanes' recordings as the canonical stream: by
// (T, Rank), each rank's own order kept among equal keys. The logs are
// concatenated in lane order into one exactly sized buffer, which is sorted
// in place by a comparison the compiler sees. Every rank records into one
// log, so the stable sort keeps its order on any lane count; each log is
// already in T order, so the sort's input is nearly sorted.
func mergeEvents(logs []laneLog) []Event {
	n := 0
	for i := range logs {
		n += logs[i].n
	}
	evs := make([]Event, 0, n)
	for i := range logs {
		evs = logs[i].appendTo(evs)
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
	n := 0
	for _, ev := range tr.Events {
		if ev.Op == pat.SLO {
			n++
		}
	}
	durs := make([]float64, 0, n)
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
