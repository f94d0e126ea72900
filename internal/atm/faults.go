package atm

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// This file is the cluster's fault/condition layer: one composable policy
// (Faults) applied by an Injector that wraps any Medium. Every way the wire
// can misbehave — loss, added latency, jitter, reordering, duplication,
// partitions, scripted drops — lives here, seeded and deterministic, instead
// of being hand-rolled per medium. The protocol stacks above (UDP/RUDP, TCP,
// AAL4, U-Net) see only the Medium interface and are driven through faults
// without knowing the policy exists.

// Partition blocks all frames (droppable or not) between a host pair during
// a virtual-time window. A == -1 or B == -1 matches any host, so {-1, h}
// isolates h from everyone. Until == 0 means the partition never heals.
type Partition struct {
	A, B        int
	From, Until sim.Duration
}

// blocks reports whether the partition severs a src->dst frame at time now.
func (pt Partition) blocks(src, dst int, now sim.Time) bool {
	pair := func(a, b int) bool {
		return (pt.A == -1 || pt.A == a) && (pt.B == -1 || pt.B == b)
	}
	if !pair(src, dst) && !pair(dst, src) {
		return false
	}
	if now < sim.Time(pt.From) {
		return false
	}
	if pt.Until != 0 && now >= sim.Time(pt.Until) {
		return false
	}
	return true
}

// Faults is one fault policy. The zero value injects nothing. Probabilities
// are in [0, 1]; random draws come from dedicated generators seeded with
// Seed, one per (src, dst) link, so fault decisions are reproducible and
// independent of the workload's own randomness and of the kernel it runs on.
type Faults struct {
	Seed int64

	// Loss drops each droppable frame with this probability. Frames sent
	// with DeliverOpts.Droppable == false (TCP segments, whose loss recovery
	// the model deliberately omits) are exempt, as are U-Net frames (the
	// switch's dedicated links are flow controlled and lossless).
	Loss float64
	// DropEveryN deterministically drops every Nth droppable frame
	// (1-based, counted per (src, dst) link), for scripted scenarios
	// independent of the seed.
	DropEveryN int

	// Delay adds a fixed one-way latency to every frame; Jitter adds a
	// further uniform draw from [0, Jitter) per frame.
	Delay  sim.Duration
	Jitter sim.Duration

	// Reorder holds each droppable frame for an extra ReorderDelay with
	// this probability, letting later frames overtake it (the media are
	// otherwise FIFO per pair). ReorderDelay == 0 uses DefaultReorderDelay.
	Reorder      float64
	ReorderDelay sim.Duration

	// Duplicate delivers each droppable frame twice with this probability.
	Duplicate float64

	// Partitions lists scheduled connectivity cuts.
	Partitions []Partition
}

// DefaultReorderDelay is the hold time applied to reordered frames when the
// policy does not set one: long enough that back-to-back small frames
// overtake, short against any RTO.
const DefaultReorderDelay = 500 * time.Microsecond

// active reports whether the policy can ever perturb a frame.
func (f Faults) active() bool {
	return f.Loss > 0 || f.DropEveryN > 0 || f.Delay > 0 || f.Jitter > 0 ||
		f.Reorder > 0 || f.Duplicate > 0 || len(f.Partitions) > 0
}

// Validate rejects out-of-range knobs.
func (f Faults) Validate() error {
	check := func(name string, p float64) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("faults: %s probability %g outside [0, 1]", name, p)
		}
		return nil
	}
	if err := check("loss", f.Loss); err != nil {
		return err
	}
	if err := check("reorder", f.Reorder); err != nil {
		return err
	}
	if err := check("duplicate", f.Duplicate); err != nil {
		return err
	}
	if f.DropEveryN < 0 {
		return fmt.Errorf("faults: drop-every-N %d is negative", f.DropEveryN)
	}
	if f.Delay < 0 || f.Jitter < 0 || f.ReorderDelay < 0 {
		return fmt.Errorf("faults: negative delay")
	}
	for _, pt := range f.Partitions {
		if pt.Until != 0 && pt.Until <= pt.From {
			return fmt.Errorf("faults: partition %d-%d heals at %v before starting at %v", pt.A, pt.B, pt.Until, pt.From)
		}
	}
	return nil
}

// FaultStats counts injected events (tests and instrumentation). Counters
// are updated atomically: on a sharded cluster frames from different
// source lanes pass the injector concurrently.
type FaultStats struct {
	Dropped     int64 // frames lost to Loss or DropEveryN
	Partitioned int64 // frames severed by a partition
	Duplicated  int64 // frames delivered twice
	Reordered   int64 // frames held past their successors
	Delayed     int64 // frames carrying added Delay/Jitter
}

// Injector applies a Faults policy in front of a Medium. With no policy set
// it is a transparent passthrough that consumes no randomness, so a
// fault-free run is bit-identical to one without the injector. Frames
// surviving the policy enter the wrapped medium in their (possibly delayed)
// order; reordering works by holding a frame so its successors reach the
// FIFO wire first.
type Injector struct {
	s     *sim.Scheduler
	n     int // hosts
	inner Medium

	policy *Faults
	// One independent stream and DropEveryN counter per (src, dst) pair.
	// A link's draws depend on the policy seed, the endpoints and the
	// medium, never on the kernel: frames of one pair always originate on
	// the source host's lane, so each stream is consumed in the pair's send
	// order whether the world runs on one lane, on many, or in parallel.
	links []faultLink // n*n, indexed src*n+dst; nil with no policy

	Stats FaultStats
}

// faultLink is one (src, dst) pair's private fault stream. It is stored by
// value, n*n of them per medium, so it stays a few words.
type faultLink struct {
	rng rand.PCG
	nth int // droppable-frame counter for DropEveryN
}

// NewInjector wraps inner, the medium of an n-host cluster built on s, with
// an (initially empty) fault policy. Fault decisions and added delays happen
// on the frame's source lane.
func NewInjector(s *sim.Scheduler, n int, inner Medium) *Injector {
	return &Injector{s: s, n: n, inner: inner}
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed hash for
// deriving independent per-link seeds from (seed, src, dst, medium).
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// linkSeed derives the (src, dst) pair's stream seed.
func (in *Injector) linkSeed(seed int64, src, dst int) uint64 {
	z := splitmix64(uint64(seed))
	z = splitmix64(z ^ uint64(src+1)<<32 ^ uint64(dst+1))
	return splitmix64(z ^ uint64(in.inner.Kind()))
}

// Set installs policy f; an inactive policy clears the injector.
func (in *Injector) Set(f Faults) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if !f.active() { // transparent passthrough
		in.policy, in.links = nil, nil
		return nil
	}
	in.policy = &f
	in.links = make([]faultLink, in.n*in.n)
	for src := 0; src < in.n; src++ {
		for dst := 0; dst < in.n; dst++ {
			z := in.linkSeed(f.Seed, src, dst)
			in.links[src*in.n+dst].rng.Seed(z, splitmix64(z))
		}
	}
	return nil
}

// Kind implements Medium.
func (in *Injector) Kind() MediumKind { return in.inner.Kind() }

// MTU implements Medium.
func (in *Injector) MTU() int { return in.inner.MTU() }

// srcSched reports the scheduler owning frames from host src.
func (in *Injector) srcSched(src int) *sim.Scheduler { return in.s.Node(src, in.n) }

// plan decides one frame's fate under the installed policy: dropped, or
// delivered extra late — twice when dup. It runs on the frame's source lane
// and draws from the frame's link, so the outcome is independent of
// cross-lane interleaving.
func (in *Injector) plan(src, dst int, droppable bool) (drop bool, extra sim.Duration, dup bool) {
	f := in.policy
	l := &in.links[src*in.n+dst]
	rng := rand.New(&l.rng)
	now := in.srcSched(src).Now()
	for _, pt := range f.Partitions {
		if pt.blocks(src, dst, now) {
			atomic.AddInt64(&in.Stats.Partitioned, 1)
			return true, 0, false
		}
	}
	if droppable {
		if f.DropEveryN > 0 {
			l.nth++
			if l.nth%f.DropEveryN == 0 {
				atomic.AddInt64(&in.Stats.Dropped, 1)
				return true, 0, false
			}
		}
		if f.Loss > 0 && rng.Float64() < f.Loss {
			atomic.AddInt64(&in.Stats.Dropped, 1)
			return true, 0, false
		}
	}
	extra = f.Delay
	if f.Jitter > 0 {
		extra += sim.Duration(rng.Int64N(int64(f.Jitter)))
	}
	if droppable && f.Reorder > 0 && rng.Float64() < f.Reorder {
		hold := f.ReorderDelay
		if hold == 0 {
			hold = DefaultReorderDelay
		}
		extra += hold
		atomic.AddInt64(&in.Stats.Reordered, 1)
	}
	if extra > 0 {
		atomic.AddInt64(&in.Stats.Delayed, 1)
	}
	if droppable && f.Duplicate > 0 && rng.Float64() < f.Duplicate {
		atomic.AddInt64(&in.Stats.Duplicated, 1)
		dup = true
	}
	return false, extra, dup
}

// Deliver implements Medium: the frame passes through the policy, then (if
// it survives) enters the wrapped medium after any added delay. A dropped
// frame never reaches the wire — it is cut at the sending port.
func (in *Injector) Deliver(src, dst, n int, opts DeliverOpts, deliver func()) int {
	if in.policy == nil {
		return in.inner.Deliver(src, dst, n, opts, deliver)
	}
	drop, extra, dup := in.plan(src, dst, opts.Droppable)
	if drop {
		return 0
	}
	copies := 1
	if dup {
		copies = 2
	}
	for i := 0; i < copies; i++ {
		if extra == 0 {
			in.inner.Deliver(src, dst, n, opts, deliver)
			continue
		}
		// The hold timer lives on the source lane (where the send runs);
		// the wrapped medium does its own cross-lane routing afterwards.
		in.srcSched(src).After(extra, func() {
			in.inner.Deliver(src, dst, n, opts, deliver)
		})
	}
	return copies
}

// admit is plan for the byte path that bypasses the Medium interface (the
// U-Net endpoint enters the switch fabric directly). Partition and delay
// faults still apply there; loss, duplication and reordering do not — its
// frames are never droppable, matching the lossless flow-controlled links —
// so a surviving frame is delivered exactly once, extra late.
func (in *Injector) admit(src, dst int) (drop bool, extra sim.Duration) {
	if in.policy == nil {
		return false, 0
	}
	drop, extra, _ = in.plan(src, dst, false)
	return drop, extra
}

// ParsePartitions parses a partition schedule DSL: semicolon-separated
// entries of the form "A-B[@FROM:UNTIL]", where A/B are host ids or "*"
// (any host), FROM/UNTIL are Go durations since run start, an empty UNTIL
// never heals, and a missing "@..." means "cut forever from t=0".
//
//	"0-1"              hosts 0 and 1 cut for the whole run
//	"0-*@1ms:"         host 0 isolated from 1 ms on
//	"0-1@5ms:20ms;2-3" two cuts, one windowed, one permanent
func ParsePartitions(spec string) ([]Partition, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []Partition
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		pair, window, windowed := strings.Cut(entry, "@")
		a, b, ok := strings.Cut(pair, "-")
		if !ok {
			return nil, fmt.Errorf("partition %q: want A-B[@FROM:UNTIL]", entry)
		}
		pt := Partition{}
		var err error
		if pt.A, err = parseHost(a); err != nil {
			return nil, fmt.Errorf("partition %q: %v", entry, err)
		}
		if pt.B, err = parseHost(b); err != nil {
			return nil, fmt.Errorf("partition %q: %v", entry, err)
		}
		if windowed {
			from, until, ok := strings.Cut(window, ":")
			if !ok {
				return nil, fmt.Errorf("partition %q: window %q wants FROM:UNTIL", entry, window)
			}
			if pt.From, err = parseDur(from); err != nil {
				return nil, fmt.Errorf("partition %q: %v", entry, err)
			}
			if until != "" {
				if pt.Until, err = parseDur(until); err != nil {
					return nil, fmt.Errorf("partition %q: %v", entry, err)
				}
			}
		}
		if (Faults{Partitions: []Partition{pt}}).Validate() != nil {
			return nil, fmt.Errorf("partition %q: heals before it starts", entry)
		}
		out = append(out, pt)
	}
	return out, nil
}

// Kill schedules the death of one rank's process at a virtual time — the
// process-failure analogue of a Partition. Unlike the other fault knobs it
// is not a property of any medium: the registry hands the schedule to
// mpi.World.ScheduleKills, which arranges the victim's failure and every
// survivor's detection as simulated-time events on each rank's own lane,
// so injection works identically on every backend and costs zero wire
// traffic.
type Kill struct {
	Rank int
	At   sim.Duration
}

// ParseKills parses a kill schedule DSL: semicolon-separated entries of
// the form "RANK@T", where RANK is the victim and T is a Go duration since
// run start.
//
//	"2@5ms"        rank 2 dies 5 ms in
//	"1@1ms;3@2ms"  two deaths
func ParseKills(spec string) ([]Kill, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []Kill
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		rankStr, atStr, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("kill %q: want RANK@T", entry)
		}
		rank, err := strconv.Atoi(strings.TrimSpace(rankStr))
		if err != nil || rank < 0 {
			return nil, fmt.Errorf("kill %q: bad rank %q", entry, rankStr)
		}
		at, err := parseDur(atStr)
		if err != nil {
			return nil, fmt.Errorf("kill %q: %v", entry, err)
		}
		out = append(out, Kill{Rank: rank, At: at})
	}
	return out, nil
}

func parseHost(s string) (int, error) {
	s = strings.TrimSpace(s)
	if s == "*" {
		return -1, nil
	}
	h, err := strconv.Atoi(s)
	if err != nil || h < 0 {
		return 0, fmt.Errorf("bad host %q (id or *)", s)
	}
	return h, nil
}

func parseDur(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("bad duration %q: %v", s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	return d, nil
}
