package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/atm"
	"repro/internal/workload"
	"repro/mpi"
	"repro/platform/registry"
)

// The chaos suite: kill schedules × injected loss over every
// kill-capable backend. Each point runs the ULFM recovery loop
// (apps.FTShrink) under a pinned fault schedule and records whether the
// survivors completed with the right answer, how long detection took
// (virtual time from the kill to the first survivor observing it), and
// how long the revoke/agree/shrink rebuild took. A point is measured on the
// single-lane scheduler; the sharded kernels are checked against it, not
// recorded. Every number is simulated time, so two runs of the sweep must
// produce byte-identical JSON — CI runs it twice and compares.

// ChaosPoint is one (backend, kill schedule, loss) cell.
type ChaosPoint struct {
	Backend   string  `json:"backend"`
	Kills     string  `json:"kills,omitempty"`
	Loss      float64 `json:"loss,omitempty"`
	Failures  int     `json:"failures"`   // ranks the schedule kills
	Survived  bool    `json:"survived"`   // all survivors finished with the survivor sum
	Shrinks   int     `json:"shrinks"`    // most recovery rounds any survivor ran
	DetectUS  float64 `json:"detect_us"`  // worst survivor: kill -> failure observed
	ShrinkUS  float64 `json:"shrink_us"`  // worst survivor: observed -> shrunken comm ready
	ElapsedUS float64 `json:"elapsed_us"` // worst survivor: entry -> final answer
	Identical bool    `json:"identical"`  // every field above equal on each of kernels
}

// ChaosReport is the machine-readable record of one sweep
// (BENCH_chaos.json).
type ChaosReport struct {
	Ranks        int          `json:"ranks"`
	FaultSeed    int64        `json:"fault_seed"`
	Points       []ChaosPoint `json:"points"`
	SurvivalRate float64      `json:"survival_rate"` // over the kill-bearing points
	DetectP50US  float64      `json:"detect_p50_us"`
	DetectP99US  float64      `json:"detect_p99_us"`
	ShrinkP50US  float64      `json:"shrink_p50_us"`
	ShrinkP99US  float64      `json:"shrink_p99_us"`
}

const chaosRanks = 4

// chaosBackends are the kill-capable backends (every poll-model engine;
// the Meiko MPICH baseline rejects kill schedules by design).
var chaosBackends = []string{
	"mem", "meiko/lowlatency",
	"cluster/tcp", "cluster/udp", "cluster/unet", "cluster/shm",
}

// chaosSchedules are the swept kill schedules. Kills land inside every
// rank's 100µs compute phase, so the collective is interrupted, not
// dodged. The multi-failure schedule is reported but not survival-gated:
// checkChaos requires 100% survival for the single-failure points.
var chaosSchedules = []string{"", "2@50us", "1@50us;3@80us"}

// chaosLossy is the one backend whose wire the fault layer can drop
// datagrams on; it also runs its schedule sweep at 1% loss.
const chaosLossy = "cluster/udp"

// Chaos sweeps the recovery path over backends × loss × kill schedules.
// The aggregates are taken over the single-lane samples.
func Chaos(o Opts) (ChaosReport, error) {
	rep := ChaosReport{Ranks: chaosRanks, FaultSeed: faultsSeed}
	var detects, shrinks []float64
	killPoints, survived := 0, 0
	for _, backend := range chaosBackends {
		losses := []float64{0}
		if backend == chaosLossy {
			losses = append(losses, 0.01)
		}
		for _, loss := range losses {
			for _, kills := range chaosSchedules {
				pt, ds, ss, err := chaosRun(backend, kernels[0], loss, kills)
				if err != nil {
					return rep, err
				}
				identical := true
				for _, k := range kernels[1:] {
					again, _, _, err := chaosRun(backend, k, loss, kills)
					if err != nil {
						return rep, err
					}
					identical = identical && again == pt
				}
				pt.Identical = identical
				rep.Points = append(rep.Points, pt)
				detects = append(detects, ds...)
				shrinks = append(shrinks, ss...)
				if pt.Failures > 0 {
					killPoints++
					if pt.Survived {
						survived++
					}
				}
			}
		}
	}
	if killPoints > 0 {
		rep.SurvivalRate = float64(survived) / float64(killPoints)
	}
	sort.Float64s(detects)
	sort.Float64s(shrinks)
	rep.DetectP50US, rep.DetectP99US = workload.Percentile(detects, 0.50), workload.Percentile(detects, 0.99)
	rep.ShrinkP50US, rep.ShrinkP99US = workload.Percentile(shrinks, 0.50), workload.Percentile(shrinks, 0.99)
	return rep, nil
}

// chaosRun executes one point on kernel k and returns it plus the
// per-survivor detection and shrink latency samples.
func chaosRun(backend string, k kernel, loss float64, kills string) (ChaosPoint, []float64, []float64, error) {
	pt := ChaosPoint{Backend: backend, Kills: kills, Loss: loss}
	spec := registry.SpecFor(backend)
	spec.Ranks = chaosRanks
	spec.Kills = kills
	spec.Lanes, spec.Parallel = k.Lanes, k.Parallel
	if loss > 0 {
		spec.LossRate = loss
		spec.FaultSeed = faultsSeed
	}
	w, err := registry.Build(spec)
	if err != nil {
		return pt, nil, nil, fmt.Errorf("chaos %s lanes=%d: %v", backend, k.Lanes, err)
	}
	var mu sync.Mutex
	results := make([]apps.FTShrinkResult, chaosRanks)
	_, lerr := mpi.Launch(w, func(c *mpi.Comm) error {
		res, err := apps.FTShrink(c, apps.FTShrinkConfig{Compute: 100 * time.Microsecond})
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return err
	})
	// The schedule built the world, so it parses: the victims, the sum the
	// survivors must reach, and the first death (detection is timed from it).
	schedule, _ := atm.ParseKills(kills)
	pt.Failures = len(schedule)
	victim := make(map[int]bool, len(schedule))
	var firstKill time.Duration
	for i, kill := range schedule {
		victim[kill.Rank] = true
		if i == 0 || kill.At < firstKill {
			firstKill = kill.At
		}
	}
	want := int64(0)
	for r := 0; r < chaosRanks; r++ {
		if !victim[r] {
			want += int64(r) + 1
		}
	}
	pt.Survived = lerr == nil
	var detects, shrinks []float64
	for r, res := range results {
		if victim[r] {
			if !res.Died {
				pt.Survived = false
			}
			continue
		}
		if res.Died || res.Sum != want || (pt.Failures > 0 && !res.Shrunk) {
			pt.Survived = false
		}
		if res.Shrinks > pt.Shrinks {
			pt.Shrinks = res.Shrinks
		}
		if us := float64(res.Elapsed) / 1e3; us > pt.ElapsedUS {
			pt.ElapsedUS = us
		}
		if res.DetectedAt > 0 {
			d := float64(res.DetectedAt-firstKill) / 1e3
			detects = append(detects, d)
			if d > pt.DetectUS {
				pt.DetectUS = d
			}
		}
		if res.ShrunkAt > 0 {
			s := float64(res.ShrunkAt-res.DetectedAt) / 1e3
			shrinks = append(shrinks, s)
			if s > pt.ShrinkUS {
				pt.ShrinkUS = s
			}
		}
	}
	return pt, detects, shrinks, nil
}

// FormatChaos renders the sweep as the text table the CLI prints.
func FormatChaos(r ChaosReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos sweep: kill schedules x loss over %d-rank worlds (fault seed %d)\n", r.Ranks, r.FaultSeed)
	fmt.Fprintf(&b, "survival %.0f%% over kill points; detect p50/p99 %.1f/%.1f us; shrink p50/p99 %.1f/%.1f us\n\n",
		r.SurvivalRate*100, r.DetectP50US, r.DetectP99US, r.ShrinkP50US, r.ShrinkP99US)
	fmt.Fprintf(&b, "%-18s %6s %-16s %8s %7s %10s %10s %10s %9s\n",
		"backend", "loss", "kills", "survived", "shrinks", "detect us", "shrink us", "elapsed us", "identical")
	for _, p := range r.Points {
		kills := p.Kills
		if kills == "" {
			kills = "-"
		}
		fmt.Fprintf(&b, "%-18s %5.0f%% %-16s %8v %7d %10.1f %10.1f %10.1f %9v\n",
			p.Backend, p.Loss*100, kills, p.Survived, p.Shrinks, p.DetectUS, p.ShrinkUS, p.ElapsedUS, p.Identical)
	}
	return b.String()
}

// checkChaos gates the sweep. Static floors, baseline or not: every point
// must read the same on each of kernels, and every fault-free point and
// every single-failure point must survive (the multi-failure points are
// reported, not gated). Against a committed baseline: survival must not drop
// anywhere, no point may disappear, and detection/shrink latency may not
// regress more than suiteTol on any point that both runs survived.
func checkChaos(r ChaosReport, base *ChaosReport) []string {
	var fails []string
	key := func(p ChaosPoint) string { return fmt.Sprintf("%s|%g|%s", p.Backend, p.Loss, p.Kills) }
	for _, p := range r.Points {
		if !p.Identical {
			fails = append(fails, fmt.Sprintf("%s: the sharded kernels do not reproduce the single-lane point", key(p)))
		}
		if p.Failures <= 1 && !p.Survived {
			fails = append(fails, fmt.Sprintf("%s: world did not survive a %d-failure schedule", key(p), p.Failures))
		}
	}
	if base == nil {
		return fails
	}
	survived := func(p ChaosPoint) bool { return p.Survived }
	return append(fails, drift("point", r.Points, base.Points, key, suiteTol,
		higher("survived", func(p ChaosPoint) float64 {
			if p.Survived {
				return 1
			}
			return 0
		}),
		lower("detection us", func(p ChaosPoint) float64 { return p.DetectUS }).when(survived),
		lower("shrink us", func(p ChaosPoint) float64 { return p.ShrinkUS }).when(survived))...)
}
