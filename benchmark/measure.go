package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
	"repro/mpi"
	"repro/platform/registry"
)

// rep is one repetition of a workload: a freshly built world (worlds are
// single-use) and one recorded run on it, with the host resources the
// pair consumed.
type rep struct {
	Build, Wall, CPU time.Duration
	Ref              time.Duration // what the reference kernel took right afterwards (repOpts.ref)
	Mallocs, Bytes   uint64        // heap objects and bytes allocated during the repetition
	LiveBytes        uint64        // heap + stacks still in use after a forced GC, world and result referenced
	Digest           string        // sha256 of the canonical trace encoding
	Res              *workload.Result
	Log              *trace.Log // message timeline, when the repetition ran with EnableTrace
}

// repOpts varies a repetition without changing the job.
type repOpts struct {
	spec     *registry.Spec  // world to build instead of the workload's own (kernel cross-check)
	replay   *workload.Trace // replay and diff against this recording instead of recording afresh
	msgTrace bool            // attach the engine's message timeline (World.EnableTrace)
	ref      bool            // read the host's speed with refKernel once the repetition is over
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRep executes one repetition of b. It collects garbage first so every
// repetition starts from the same heap, and again afterwards to read the
// live size; both collections are outside the timed window.
func runRep(sp *spans, b benchWorkload, o repOpts) (*rep, error) {
	spec := b.Spec
	if o.spec != nil {
		spec = *o.spec
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := &rep{}
	c0, t0 := cpuTime(), time.Now()

	var w *mpi.World
	var err error
	sp.do("registry.Build", func() { w, err = registry.Build(spec) })
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", b.Name, err)
	}
	r.Build = time.Since(t0)
	if o.msgTrace {
		r.Log = w.EnableTrace()
	}
	if o.replay != nil {
		sp.do("workload.Replay", func() { r.Res, err = workload.Replay(w, o.replay) })
	} else {
		sp.do("workload.Run", func() { r.Res, err = workload.Run(w, b.Cfg) })
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}

	r.Wall, r.CPU = time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&m1)
	r.Mallocs, r.Bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.LiveBytes = m1.HeapAlloc + m1.StackInuse
	runtime.KeepAlive(w)
	if o.ref {
		sp.do("refKernel", func() { r.Ref = refKernel(b.scale) })
	}

	var enc []byte
	sp.do("Trace.Marshal", func() { enc = r.Res.Trace.Marshal() })
	sum := sha256.Sum256(enc)
	r.Digest = hex.EncodeToString(sum[:8])
	return r, nil
}

// median reports the middle of xs (mean of the two middles when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// refSeconds converts a duration measured during the repetition into
// reference time: what it would have been on a host where refKernel takes
// refNominal. The host's speed drifts by tens of percent within minutes
// (see README.md), and the reading taken right after the repetition is the
// best estimate of what it was during it.
func (r *rep) refSeconds(d time.Duration) float64 {
	return d.Seconds() * refNominal.Seconds() / r.Ref.Seconds()
}

// medianOf maps every repetition through f and reports the median.
func medianOf(reps []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}
