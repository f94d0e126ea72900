package bench

import (
	"cmp"
	"fmt"
	"sort"
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

	detects, shrinks []float64 // every survivor's samples, single-lane, for the percentiles
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

// chaosSweep sweeps the recovery path over backends × loss × kill
// schedules. The aggregates are taken over the single-lane samples.
func chaosSweep(Opts) sweep[ChaosReport] {
	return sweep[ChaosReport]{
		skeleton: func() ChaosReport {
			rep := ChaosReport{Ranks: chaosRanks, FaultSeed: faultsSeed}
			for _, backend := range chaosBackends {
				losses := []float64{0}
				if backend == chaosLossy {
					losses = append(losses, 0.01)
				}
				for _, loss := range losses {
					for _, kills := range chaosSchedules {
						rep.Points = append(rep.Points, ChaosPoint{Backend: backend, Kills: kills, Loss: loss})
					}
				}
			}
			return rep
		},
		points: func(r *ChaosReport) []point {
			return each(r.Points, chaosKey, func(x *runner, p ChaosPoint) (ChaosPoint, error) {
				run, same, err := reproduced(kernels, func(k kernel) (chaosRun, error) { return runChaos(x, r, p, k) },
					func(a, b chaosRun) bool { return a.pt == b.pt })
				r.detects = append(r.detects, run.detects...)
				r.shrinks = append(r.shrinks, run.shrinks...)
				run.pt.Identical = same
				return run.pt, err
			})
		},
		finish: func(_ *runner, r *ChaosReport) error {
			killPoints, survived := 0, 0
			for _, p := range r.Points {
				if p.Failures > 0 {
					killPoints++
					if p.Survived {
						survived++
					}
				}
			}
			if killPoints > 0 {
				r.SurvivalRate = float64(survived) / float64(killPoints)
			}
			sort.Float64s(r.detects)
			sort.Float64s(r.shrinks)
			r.DetectP50US, r.DetectP99US = workload.Percentile(r.detects, 0.50), workload.Percentile(r.detects, 0.99)
			r.ShrinkP50US, r.ShrinkP99US = workload.Percentile(r.shrinks, 0.50), workload.Percentile(r.shrinks, 0.99)
			return nil
		},
	}
}

// chaosRun is one run of a point and its per-survivor detection and shrink
// latency samples.
type chaosRun struct {
	pt               ChaosPoint
	detects, shrinks []float64
}

// runChaos runs point p of r on kernel k.
func runChaos(x *runner, r *ChaosReport, p ChaosPoint, k kernel) (chaosRun, error) {
	run := chaosRun{pt: ChaosPoint{Backend: p.Backend, Kills: p.Kills, Loss: p.Loss}}
	pt := &run.pt
	spec := registry.SpecFor(p.Backend)
	spec.Ranks, spec.Kills = r.Ranks, p.Kills
	if p.Loss > 0 {
		spec.LossRate, spec.FaultSeed = p.Loss, r.FaultSeed
	}
	var mu sync.Mutex
	results := make([]apps.FTShrinkResult, r.Ranks)
	rep, lerr := x.launch(on(spec, k), func(c *mpi.Comm) error {
		res, err := apps.FTShrink(c, apps.FTShrinkConfig{Compute: 100 * time.Microsecond})
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
		return err
	})
	if rep == nil { // the world was not built
		return run, lerr
	}
	// The schedule built the world, so it parses: the victims, the sum the
	// survivors must reach, and the first death (detection is timed from it).
	schedule, _ := atm.ParseKills(p.Kills)
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
	for rank := 0; rank < r.Ranks; rank++ {
		if !victim[rank] {
			want += int64(rank) + 1
		}
	}
	pt.Survived = lerr == nil
	for rank, res := range results {
		if victim[rank] {
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
			run.detects = append(run.detects, d)
			if d > pt.DetectUS {
				pt.DetectUS = d
			}
		}
		if res.ShrunkAt > 0 {
			s := float64(res.ShrunkAt-res.DetectedAt) / 1e3
			run.shrinks = append(run.shrinks, s)
			if s > pt.ShrinkUS {
				pt.ShrinkUS = s
			}
		}
	}
	return run, nil
}

// chaosKey names one point of the report.
func chaosKey(p ChaosPoint) string { return key("chaos", p.Backend, p.Loss, cmp.Or(p.Kills, "none")) }

// checkChaos is the sweep's static floors: every point must read the same
// on each of kernels, and every fault-free point and every single-failure
// point must survive (the multi-failure points are reported, not gated).
func checkChaos(r ChaosReport) []string {
	var fails []string
	for _, p := range r.Points {
		if !p.Identical {
			fails = append(fails, fmt.Sprintf("%s: the sharded kernels do not reproduce the single-lane point", chaosKey(p)))
		}
		if p.Failures <= 1 && !p.Survived {
			fails = append(fails, fmt.Sprintf("%s: world did not survive a %d-failure schedule", chaosKey(p), p.Failures))
		}
	}
	return fails
}
