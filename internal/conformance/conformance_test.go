package conformance

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/meiko"
	"repro/internal/sim"
	"repro/mpi"
	"repro/platform/registry"

	_ "repro/platform/cluster"
	_ "repro/platform/meiko"
)

var seeds = []int64{1, 7, 42}

// factory adapts a registry spec into the suite's world factory.
func factory(t *testing.T, spec registry.Spec) func(n int) *mpi.World {
	t.Helper()
	return func(n int) *mpi.World {
		s := spec
		s.Ranks = n
		w, err := registry.Build(s)
		if err != nil {
			t.Fatalf("build %s: %v", s.Key(), err)
		}
		return w
	}
}

// TestRegistryMatrix runs the full conformance suite over every registered
// backend: a newly registered backend is swept automatically, with no test
// to write.
func TestRegistryMatrix(t *testing.T) {
	for _, name := range registry.Names() {
		spec := registry.SpecFor(name)
		if spec.Platform == "mem" {
			spec.Credit = 4096 // small, to exercise queued sends
		}
		t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
			if err := Run(factory(t, spec), seeds); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The remaining tests pin down configuration corners the matrix's default
// specs don't reach.

func TestClusterTCPOverEthernet(t *testing.T) {
	spec := registry.Spec{Platform: "cluster", Network: "eth"}
	if err := Run(factory(t, spec), seeds[:2]); err != nil {
		t.Fatal(err)
	}
}

func TestClusterUDPWithLoss(t *testing.T) {
	spec := registry.Spec{Platform: "cluster", Transport: "udp", LossRate: 0.03}
	if err := Run(factory(t, spec), seeds[:1]); err != nil {
		t.Fatal(err)
	}
}

// The hardened reliability stack must pass the full semantic suite at 1%
// injected loss under a pinned fault seed, so the drop schedule — and any
// failure — reproduces exactly.
func TestClusterUDPLossyConformance(t *testing.T) {
	spec := registry.Spec{Platform: "cluster", Transport: "udp", LossRate: 0.01, FaultSeed: 42}
	if err := Run(factory(t, spec), seeds[:2]); err != nil {
		t.Fatal(err)
	}
}

// Collectives layer the same sequencing guarantees many ranks deep;
// they too must survive a lossy wire.
func TestClusterUDPLossyCollectives(t *testing.T) {
	spec := registry.Spec{Platform: "cluster", Transport: "udp", LossRate: 0.01, FaultSeed: 42}
	if err := CollectiveMatrix(factory(t, spec), 4); err != nil {
		t.Fatal(err)
	}
}

// Fault knobs only make sense where a fault layer exists: the registry
// must reject them on non-cluster platforms instead of silently ignoring
// them.
func TestFaultsRejectedOffCluster(t *testing.T) {
	spec := registry.Spec{Platform: "meiko", LossRate: 0.01, Ranks: 2}
	if _, err := registry.Build(spec); err == nil {
		t.Fatal("meiko accepted a fault policy it cannot apply")
	}
}

// Tight flow control: tiny credit reservations force heavy queuing; the
// suite must still pass (ordering preserved through the flow layer's
// pending queues).
func TestClusterTightCredits(t *testing.T) {
	spec := registry.Spec{Platform: "cluster", Credit: 2048, Eager: 1000}
	if err := Run(factory(t, spec), seeds[:2]); err != nil {
		t.Fatal(err)
	}
}

// A tiny Meiko eager threshold forces everything through rendezvous.
func TestMeikoAllRendezvous(t *testing.T) {
	spec := registry.Spec{Platform: "meiko", Eager: 1}
	if err := Run(factory(t, spec), seeds[:2]); err != nil {
		t.Fatal(err)
	}
}

// TestCollectiveMatrix forces every registered algorithm of every
// collective through the tuning layer on every backend, at a power-of-two
// and an odd rank count (the odd pass exercises the "not applicable" skip
// for power-of-two-only algorithms). Reductions run a non-commutative
// matrix product, so an algorithm that combines ranks out of order fails.
func TestCollectiveMatrix(t *testing.T) {
	if a, b := rankMat(0, 0), rankMat(1, 0); matMul(a, b) == matMul(b, a) {
		t.Fatal("rank matrices commute; the reduction-order check is vacuous")
	}
	backends := registry.Names()
	if testing.Short() {
		backends = []string{"mem", "meiko/lowlatency", "cluster/tcp"}
	}
	for _, name := range backends {
		spec := registry.SpecFor(name)
		for _, ranks := range []int{4, 5} {
			t.Run(fmt.Sprintf("%s_%dranks", strings.ReplaceAll(name, "/", "_"), ranks), func(t *testing.T) {
				if err := CollectiveMatrix(factory(t, spec), ranks); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestAutoSelection pins the end-to-end selector wiring: with no tuning
// forced, the algorithm the accounting layer records must track payload
// size and platform capability (hardware broadcast on the Meiko, software
// trees on the cluster).
func TestAutoSelection(t *testing.T) {
	cases := []struct {
		backend string
		bytes   int
		want    string
	}{
		{"meiko/lowlatency", 1 << 10, "coll.bcast.hardware"},
		{"meiko/lowlatency", 128 << 10, "coll.bcast.pipelined"},
		{"cluster/tcp", 1 << 10, "coll.bcast.binomial"},
		{"cluster/tcp", 128 << 10, "coll.bcast.pipelined"},
	}
	for _, tc := range cases {
		f := factory(t, registry.SpecFor(tc.backend))
		rep, err := mpi.Launch(f(4), func(c *mpi.Comm) error {
			return c.Bcast(0, make([]byte, tc.bytes))
		})
		if err != nil {
			t.Fatalf("%s %dB bcast: %v", tc.backend, tc.bytes, err)
		}
		if rep.Acct.Count[tc.want] == 0 {
			t.Errorf("%s %dB bcast: %s not booked; counters: %v", tc.backend, tc.bytes, tc.want, rep.Acct.Count)
		}
	}
}

// Soak: a heavier randomized schedule over more seeds on the two primary
// platforms.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	long := []int64{11, 23, 37, 59, 71}
	if err := Run(factory(t, registry.Spec{Platform: "meiko"}), long); err != nil {
		t.Fatal(err)
	}
	if err := Run(factory(t, registry.Spec{Platform: "cluster"}), long[:3]); err != nil {
		t.Fatal(err)
	}
}

// ftSpecs lists every backend that supports kill schedules (all but the
// Meiko MPICH endpoint, which rejects them by design). The last entry
// runs the recovery under 1% injected packet loss with a pinned fault
// seed: detection, revoke, agree, and shrink must all complete over a
// lossy wire, reproducibly.
var ftSpecs = []registry.Spec{
	{Platform: "mem"},
	{Platform: "meiko"},
	{Platform: "cluster"},
	{Platform: "cluster", Transport: "udp"},
	{Platform: "cluster", Transport: "unet"},
	{Platform: "cluster", Transport: "shm"},
	{Platform: "cluster", Transport: "udp", LossRate: 0.01, FaultSeed: 42},
}

func ftName(s registry.Spec) string {
	name := strings.ReplaceAll(s.Key(), "/", "_")
	if s.LossRate > 0 {
		name += "_lossy"
	}
	return name
}

// TestFTShrinkAllreduce sweeps the ft-shrink-allreduce scenario over
// every kill-capable backend and all three kernels. Each run must
// recover (checked inside the scenario body), each (backend, kernel)
// pair must be bit-identical across two runs, and — faults being
// simulated-time events, not wall-clock ones — the survivor timeline
// must match exactly between the single-lane, sharded, and parallel
// kernels, the lossy spec included.
func TestFTShrinkAllreduce(t *testing.T) {
	kernels := []struct {
		name     string
		lanes    int
		parallel bool
	}{{"single", 0, false}, {"sharded", 2, false}, {"parallel", 8, true}}
	for _, base := range ftSpecs {
		base := base
		t.Run(ftName(base), func(t *testing.T) {
			var ref []int64
			for ki, k := range kernels {
				elapsed := make([][]int64, 2)
				for round := 0; round < 2; round++ {
					spec := base
					spec.Ranks = FTShrinkRanks
					spec.Kills = FTShrinkKills
					spec.Lanes, spec.Parallel = k.lanes, k.parallel
					w, err := registry.Build(spec)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := mpi.Launch(w, func(c *mpi.Comm) error { return FTShrinkAllreduce(c, seeds[0]) })
					if err != nil {
						t.Fatalf("%s round %d: %v", k.name, round, err)
					}
					elapsed[round] = make([]int64, len(rep.RankElapsed))
					for r, d := range rep.RankElapsed {
						elapsed[round][r] = int64(d)
					}
				}
				for r := range elapsed[0] {
					if elapsed[0][r] != elapsed[1][r] {
						t.Errorf("%s rank %d: nondeterministic recovery (%dns vs %dns)", k.name, r, elapsed[0][r], elapsed[1][r])
					}
				}
				if ki == 0 {
					ref = elapsed[0]
					continue
				}
				for r := range ref {
					if ref[r] != elapsed[0][r] {
						t.Errorf("rank %d: single %dns, %s %dns — kernels diverge under faults", r, ref[r], k.name, elapsed[0][r])
					}
				}
			}
		})
	}
}

// TestFTShrinkRejectedOnMPICH pins the capability boundary: the MPICH
// endpoint models a stack without failure detection, so building a world
// that schedules kills on it must fail with a typed error, not die at
// runtime.
func TestFTShrinkRejectedOnMPICH(t *testing.T) {
	spec := registry.SpecFor("meiko/mpich")
	spec.Ranks = FTShrinkRanks
	spec.Kills = FTShrinkKills
	if _, err := registry.Build(spec); err == nil {
		t.Fatal("meiko/mpich accepted a kill schedule it cannot detect")
	}
}

// shardedSpecs lists one spec per backend family the sharded kernel must
// reproduce bit-identically: the mem reference, both Meiko implementations,
// and all four cluster transports (the ATM switch routes between lanes; the
// shm segment's visibility latency is its own lookahead bound), plus tcp
// over the shared Ethernet segment, a lane-0 stage that frames from every
// lane contend on. Then cluster/udp under each fault knob — the loss
// family, jitter, a partition that heals inside RUDP's retry budget: a
// link's draws depend on the seed, the endpoints and the medium, never on
// the kernel.
var shardedSpecs = []registry.Spec{
	{Platform: "mem", Credit: 4096},
	{Platform: "meiko"},
	{Platform: "meiko", Impl: "mpich"},
	{Platform: "cluster"},
	{Platform: "cluster", Network: "eth"},
	{Platform: "cluster", Transport: "udp"},
	{Platform: "cluster", Transport: "unet"},
	{Platform: "cluster", Transport: "shm"},
	{Platform: "cluster", Transport: "udp", FaultSeed: 42, LossRate: 0.01},
	{Platform: "cluster", Transport: "udp", DropEveryN: 7},
	{Platform: "cluster", Transport: "udp", FaultSeed: 42, Reorder: 0.1},
	{Platform: "cluster", Transport: "udp", FaultSeed: 42, Duplicate: 0.1},
	{Platform: "cluster", Transport: "udp", FaultSeed: 42, Jitter: 200 * time.Microsecond},
	{Platform: "cluster", Transport: "udp", Partition: "0-1@1ms:20ms"},
}

// shardedName names a row after its backend and the one thing it varies.
func shardedName(s registry.Spec) string {
	name := strings.ReplaceAll(s.Key(), "/", "_")
	switch {
	case s.Network != "":
		name += "_" + s.Network
	case s.LossRate > 0:
		name += "_loss"
	case s.DropEveryN > 0:
		name += "_dropnth"
	case s.Reorder > 0:
		name += "_reorder"
	case s.Duplicate > 0:
		name += "_dup"
	case s.Partition != "":
		name += "_partition"
	case s.Jitter > 0:
		name += "_jitter"
	}
	return name
}

// TestShardedConformance sweeps the full suite over the sharded kernel on
// every shardable backend: each scenario must pass and stay internally
// deterministic with ranks spread across lanes (including lane counts that
// divide the world unevenly and exceed the rank count).
func TestShardedConformance(t *testing.T) {
	for _, base := range shardedSpecs {
		for _, lanes := range []int{2, 3, 8} {
			spec := base
			spec.Lanes = lanes
			t.Run(fmt.Sprintf("%s_lanes%d", shardedName(base), lanes), func(t *testing.T) {
				if err := Run(factory(t, spec), seeds[:1]); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// sameOnEveryKernel runs body on spec's world on the single-lane scheduler,
// on the sharded kernel and under the pinned-worker parallel driver, and
// requires identical per-rank virtual finish times: sharding is a kernel
// implementation detail, not a model change. It returns the single-lane
// run's finish times.
func sameOnEveryKernel(t *testing.T, spec registry.Spec, body func(c *mpi.Comm) error) []sim.Duration {
	t.Helper()
	kernels := []struct {
		name     string
		lanes    int
		parallel bool
	}{{"single", 0, false}, {"sharded", 3, false}, {"parallel", 3, true}}
	elapsed := make([][]sim.Duration, len(kernels))
	for i, k := range kernels {
		spec.Lanes, spec.Parallel = k.lanes, k.parallel
		rep, err := registry.Run(spec, body)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		elapsed[i] = rep.RankElapsed
	}
	for i, k := range kernels[1:] {
		for r := range elapsed[0] {
			if elapsed[0][r] != elapsed[i+1][r] {
				t.Errorf("rank %d: single %dns, %s %dns", r, elapsed[0][r], k.name, elapsed[i+1][r])
			}
		}
	}
	return elapsed[0]
}

// TestShardedMatchesSingleLane holds every scenario to sameOnEveryKernel on
// every row of shardedSpecs.
func TestShardedMatchesSingleLane(t *testing.T) {
	for _, base := range shardedSpecs {
		base := base
		t.Run(shardedName(base), func(t *testing.T) {
			for _, sc := range Scenarios() {
				sc := sc
				t.Run(sc.Name, func(t *testing.T) {
					spec := base
					spec.Ranks = sc.Ranks
					sameOnEveryKernel(t, spec, func(c *mpi.Comm) error { return sc.Body(c, seeds[0]) })
				})
			}
		})
	}
}

// cluster/tcp and cluster/unet do not resequence, so Build rejects Jitter
// there (TestLossKnobsNeedADroppableWire); Delay, which shifts every frame
// alike and cannot reorder them, is the timing knob they take, and every
// scenario holds under it on every kernel.
func TestShardedJitterOnOrderedWires(t *testing.T) {
	for _, transport := range []string{"tcp", "unet"} {
		base := registry.Spec{Platform: "cluster", Transport: transport, Delay: 100 * time.Microsecond}
		t.Run(transport, func(t *testing.T) {
			for _, sc := range Scenarios() {
				t.Run(sc.Name, func(t *testing.T) {
					spec := base
					spec.Ranks = sc.Ranks
					sameOnEveryKernel(t, spec, func(c *mpi.Comm) error { return sc.Body(c, seeds[0]) })
				})
			}
		})
	}
}

// TestCostsOverride pins Spec.Costs, the knob a sensitivity sweep turns:
// a copy of the calibrated table reproduces the default run to the
// nanosecond, and one constant moved by 1 µs moves ten 1-byte round trips
// by exactly what the model charges it per round trip — WireLatency twice
// on the Meiko (one wire crossing each way), TCPPerSegment four times on
// the cluster (output and input processing, each way).
func TestCostsOverride(t *testing.T) {
	pingPong := func(c *mpi.Comm) error {
		buf := make([]byte, 1)
		for i := 0; i < 10; i++ {
			switch c.Rank() {
			case 0:
				if err := c.Send(1, 0, buf); err != nil {
					return err
				}
				if _, err := c.Recv(1, 0, buf); err != nil {
					return err
				}
			case 1:
				if _, err := c.Recv(0, 0, buf); err != nil {
					return err
				}
				if err := c.Send(0, 0, buf); err != nil {
					return err
				}
			}
		}
		return nil
	}
	elapsed := func(spec registry.Spec) sim.Duration {
		t.Helper()
		rep, err := registry.Run(spec, pingPong)
		if err != nil {
			t.Fatalf("%s: %v", spec.Key(), err)
		}
		return rep.MaxRankElapsed
	}
	meikoCosts, atmCosts := meiko.DefaultCosts(), atm.DefaultCosts()
	meikoSlow, atmSlow := meikoCosts, atmCosts
	meikoSlow.WireLatency += time.Microsecond
	atmSlow.TCPPerSegment += time.Microsecond
	for _, tc := range []struct {
		spec         registry.Spec
		copied, slow any
		shift        sim.Duration
	}{
		{registry.Spec{Platform: "meiko", Ranks: 2}, &meikoCosts, &meikoSlow, 20 * time.Microsecond},
		{registry.Spec{Platform: "cluster", Ranks: 2}, &atmCosts, &atmSlow, 40 * time.Microsecond},
	} {
		base := elapsed(tc.spec)
		spec := tc.spec
		spec.Costs = tc.copied
		if got := elapsed(spec); got != base {
			t.Errorf("%s: a copy of the default costs ran %v, the default %v", spec.Key(), got, base)
		}
		spec.Costs = tc.slow
		if got := elapsed(spec); got-base != tc.shift {
			t.Errorf("%s: one constant +1µs moved ten round trips %v → %v (%v), want +%v", spec.Key(), base, got, got-base, tc.shift)
		}
		t.Logf("%s: %v, +1µs constant %v", spec.Key(), base, base+tc.shift)
	}
}
