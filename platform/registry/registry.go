// Package registry is the single front door for building MPI worlds: the
// seam between the transport-independent engine and the platform ports.
// Every backend — the Meiko low-latency and MPICH implementations, the
// cluster's TCP/UDP/U-Net/shm transports, and the in-memory reference
// fabric — registers a Builder under a stable name, the builders read the
// Spec directly (the platform packages export no Config and no constructor
// of their own; TestSingleFrontDoor), and every entrypoint (cmd/*, the
// bench and conformance harnesses) builds worlds exclusively through
// Build. Adding a backend (a shared-memory
// port, a hierarchical fabric, a real-socket port) is a single Register
// call: it immediately becomes reachable from every command and is swept
// by the conformance matrix automatically.
//
// Backends live behind the engine / transport layering: the engine
// (internal/core) owns MPI semantics plus the inbox and the send queue
// every transport shares (arrival records, send ordering and credit/slot
// accounting), and each registered transport owns only byte movement and
// its platform cost model.
package registry

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/atm"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/mpi"
)

// Spec describes one job: which backend to build and the knobs every
// entrypoint may turn. The zero value of each field selects the backend's
// calibrated default, so Spec{Platform: "meiko", Ranks: 2} is a complete
// job description.
type Spec struct {
	Platform  string // "meiko" | "cluster" | "mem"
	Impl      string // meiko implementation: "lowlatency" | "mpich" ("" = lowlatency)
	Transport string // cluster transport: "tcp" | "udp" | "unet" | "shm" ("" = tcp)
	Network   string // cluster network: "atm" | "eth" ("" = atm)
	Ranks     int
	Lanes     int   // sharded-kernel lanes (0/1 = single-lane kernel)
	Parallel  bool  // sharded kernel: pinned-worker parallel epoch execution
	Eager     int   // eager/rendezvous crossover bytes (0 = platform default)
	Credit    int   // cluster per-pair reserved receiver bytes (0 = default)
	Costs     any   // platform cost-model override (*meiko.Costs, *atm.Costs; nil = calibrated)
	Seed      int64 // workload/scheduler seed

	// Ablation knobs, read by the platform builders.
	Coll          string  // collective tuning, "op=alg,..." over the backend's defaults (see coll.ParseTuning; "" = none)
	LossRate      float64 // cluster/udp: datagram loss probability per frame
	TCPNagle      bool    // cluster: leave Nagle/delayed acks on (no TCP_NODELAY)
	EnvelopeSlots int     // meiko: per-pair envelope slots (0 = the paper's 1)

	// Fault-injection knobs (cluster only; see atm.Faults). Together with
	// LossRate these drive the shared fault layer wrapping both media. The
	// loss family (LossRate, Reorder, Duplicate, DropEveryN) needs the one
	// wire that can drop a frame, cluster/udp; tcp and unet reject it.
	Delay      time.Duration // cluster: fixed one-way latency added per frame
	Jitter     time.Duration // cluster: extra uniform latency in [0, Jitter)
	Reorder    float64       // cluster: per-frame reordering probability
	Duplicate  float64       // cluster: per-frame duplication probability
	DropEveryN int           // cluster: deterministically drop every Nth frame of each (src, dst) link
	Partition  string        // cluster: partition schedule (atm.ParsePartitions)
	FaultSeed  int64         // cluster: fault RNG seed (0 = derive from Seed)

	// Kills is a process-death schedule, "RANK@T;RANK@T" (atm.ParseKills).
	// Unlike the wire-fault knobs it works on every backend — deaths are
	// scheduled engine events, not frame mutations — so it is deliberately
	// excluded from HasFaults.
	Kills string

	// Workload names a registered macro-workload pattern
	// (internal/workload.Names) the caller intends to drive on the world.
	// Build validates the name against the pattern registry; running the
	// workload itself is the caller's job (workload.Run / workload.Replay).
	Workload string
}

// HasFaults reports whether any fault-injection knob is set.
func (s Spec) HasFaults() bool {
	return s.LossRate > 0 || s.Delay > 0 || s.Jitter > 0 || s.Reorder > 0 ||
		s.Duplicate > 0 || s.DropEveryN > 0 || s.Partition != ""
}

// Key reports the registry name this spec resolves to.
func (s Spec) Key() string {
	switch s.Platform {
	case "meiko":
		impl := s.Impl
		if impl == "" {
			impl = "lowlatency"
		}
		return "meiko/" + impl
	case "cluster":
		tr := s.Transport
		if tr == "" {
			tr = "tcp"
		}
		return "cluster/" + tr
	default:
		return s.Platform
	}
}

// platformKnobs lists, per platform, the Spec fields its builders read on
// top of the ones that mean the same everywhere (everyKnob). A field set on
// a platform that does not list it would be dropped without a word — an
// envelope slot count on the cluster, a loss rate on the Meiko — so Build
// refuses it.
var (
	everyKnob     = []string{"Platform", "Ranks", "Lanes", "Parallel", "Eager", "Seed", "Coll", "Kills", "Workload"}
	platformKnobs = map[string][]string{
		"mem":   {"Credit"},
		"meiko": {"Impl", "Costs", "EnvelopeSlots"},
		"cluster": {"Transport", "Network", "Credit", "Costs", "TCPNagle",
			"LossRate", "Delay", "Jitter", "Reorder", "Duplicate", "DropEveryN", "Partition", "FaultSeed"},
	}
)

// foreignKnob names the first non-zero field of s its platform does not
// read, or "".
func foreignKnob(s Spec) string {
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if !v.Field(i).IsZero() && !slices.Contains(everyKnob, name) && !slices.Contains(platformKnobs[s.Platform], name) {
			return name
		}
	}
	return ""
}

// Builder constructs a fresh world for one job.
type Builder func(Spec) (*mpi.World, error)

var backends = map[string]Builder{}

// Register adds a backend under name. Platform packages call it from
// init(); registering a duplicate name panics (a wiring bug).
func Register(name string, b Builder) {
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("registry: duplicate backend %q", name))
	}
	backends[name] = b
}

// Names reports every registered backend, sorted.
func Names() []string {
	out := make([]string, 0, len(backends))
	for name := range backends {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup reports the builder registered under name.
func Lookup(name string) (Builder, bool) {
	b, ok := backends[name]
	return b, ok
}

// SpecFor parses a registry name ("cluster/udp", "meiko/mpich", "mem")
// back into the Spec fields that select it, for table-driven sweeps over
// Names().
func SpecFor(name string) Spec {
	var s Spec
	if i := strings.IndexByte(name, '/'); i >= 0 {
		s.Platform = name[:i]
		switch s.Platform {
		case "cluster":
			s.Transport = name[i+1:]
		default:
			s.Impl = name[i+1:]
		}
		return s
	}
	s.Platform = name
	return s
}

// Build constructs the world s describes, failing with the registered
// backend listing when the spec names no backend.
func Build(s Spec) (*mpi.World, error) {
	b, ok := backends[s.Key()]
	if !ok {
		return nil, fmt.Errorf("unknown backend %q (registered: %s)", s.Key(), strings.Join(Names(), ", "))
	}
	if s.Ranks <= 0 || s.Ranks > core.MaxRanks {
		return nil, fmt.Errorf("backend %q: spec needs 1 <= Ranks <= %d (the matcher keys sources in 16 bits), got %d", s.Key(), core.MaxRanks, s.Ranks)
	}
	if name := foreignKnob(s); name != "" {
		return nil, fmt.Errorf("backend %q: Spec.%s is set, but platform %q has no such knob (it would be silently ignored)", s.Key(), name, s.Platform)
	}
	if s.Workload != "" {
		if _, ok := workload.Lookup(s.Workload); !ok {
			return nil, fmt.Errorf("backend %q: unknown workload %q (registered: %s)",
				s.Key(), s.Workload, strings.Join(workload.Names(), ", "))
		}
	}
	w, err := b(s)
	if err != nil {
		return nil, err
	}
	if sh := w.S.Shard(); sh != nil {
		sh.Parallel = s.Parallel
	} else if s.Parallel {
		return nil, fmt.Errorf("backend %q: Parallel needs the sharded kernel (set Lanes > 1)", s.Key())
	}
	if s.Coll != "" {
		t, err := coll.ParseTuning(s.Coll)
		if err != nil {
			return nil, fmt.Errorf("backend %q: %w", s.Key(), err)
		}
		// Over the builder's defaults (meiko/mpich pins its binomial
		// broadcast): an explicit entry wins, the rest survive.
		for op, alg := range w.Tune {
			if _, forced := t[op]; !forced {
				t[op] = alg
			}
		}
		w.Tune = t
	}
	if s.Kills != "" {
		kills, err := atm.ParseKills(s.Kills)
		if err != nil {
			return nil, fmt.Errorf("backend %q: %w", s.Key(), err)
		}
		if err := w.ScheduleKills(kills); err != nil {
			return nil, fmt.Errorf("backend %q: %w", s.Key(), err)
		}
	}
	return w, nil
}

// Run builds the world for s and executes body as an MPI job on it.
func Run(s Spec, body func(c *mpi.Comm) error) (*mpi.Report, error) {
	w, err := Build(s)
	if err != nil {
		return nil, err
	}
	return mpi.Launch(w, body)
}

// The in-memory reference fabric: an idealized flat-latency interconnect
// around the same engine and flow machinery, registered here so the
// Transport contract's executable specification is itself a backend.
func init() {
	Register("mem", func(s Spec) (*mpi.World, error) {
		eager := s.Eager
		if eager == 0 {
			eager = 180
		}
		// Ranks are block-mapped onto lanes (one scheduler when Lanes <= 1),
		// with the fabric's flat latency as the lookahead bound.
		sched := sim.NewKernel(s.Seed+1, s.Lanes, s.Ranks, time.Microsecond, 500_000_000)
		fab := core.NewMemFabric(sched, time.Microsecond, eager)
		fab.Credits = s.Credit
		eps := make([]core.Endpoint, s.Ranks)
		for i := range eps {
			e := core.NewEngine(sched.Node(i, s.Ranks), i, s.Ranks, core.EngineCosts{})
			fab.Attach(e)
			eps[i] = e
		}
		w := mpi.NewWorld(sched, eps)
		// A flat-microsecond fabric detects a silent peer almost at once.
		w.FTDetect = 10 * time.Microsecond
		return w, nil
	})
}
