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
// kill-capable backend and lane count. Each point runs the ULFM recovery
// loop (apps.FTShrink) under a pinned fault schedule and records whether
// the survivors completed with the right answer, how long detection took
// (virtual time from the kill to the first survivor observing it), and
// how long the revoke/agree/shrink rebuild took. Every number is
// simulated time, so two runs of the sweep must produce byte-identical
// JSON — CI runs it twice and compares.

// ChaosPoint is one (backend, lanes, kill schedule, loss) cell.
type ChaosPoint struct {
	Backend   string  `json:"backend"`
	Lanes     int     `json:"lanes"`
	Kills     string  `json:"kills,omitempty"`
	Loss      float64 `json:"loss,omitempty"`
	Failures  int     `json:"failures"`   // ranks the schedule kills
	Survived  bool    `json:"survived"`   // all survivors finished with the survivor sum
	Shrinks   int     `json:"shrinks"`    // most recovery rounds any survivor ran
	DetectUS  float64 `json:"detect_us"`  // worst survivor: kill -> failure observed
	ShrinkUS  float64 `json:"shrink_us"`  // worst survivor: observed -> shrunken comm ready
	ElapsedUS float64 `json:"elapsed_us"` // worst survivor: entry -> final answer
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

// chaosSchedules pairs each swept kill schedule with the instants the
// deaths land (for detection-latency accounting). Kills land inside every
// rank's 100µs compute phase, so the collective is interrupted, not
// dodged. The multi-failure schedule is reported but not survival-gated:
// checkChaos requires 100% survival for the single-failure points.
var chaosSchedules = []struct {
	Kills string
	At    []time.Duration
}{
	{"", nil},
	{"2@50us", []time.Duration{50 * time.Microsecond}},
	{"1@50us;3@80us", []time.Duration{50 * time.Microsecond, 80 * time.Microsecond}},
}

// chaosLossy is the one backend whose wire the fault layer can drop
// datagrams on; it also runs its schedule sweep at 1% loss.
const chaosLossy = "cluster/udp"

// Chaos sweeps the recovery path over backends × lanes × kill schedules
// × loss.
func Chaos(o Opts) (ChaosReport, error) {
	rep := ChaosReport{Ranks: chaosRanks, FaultSeed: faultsSeed}
	var detects, shrinks []float64
	killPoints, survived := 0, 0
	for _, backend := range chaosBackends {
		for _, lanes := range []int{1, 2, 8} {
			losses := []float64{0}
			if backend == chaosLossy {
				losses = append(losses, 0.01)
			}
			for _, loss := range losses {
				for _, sched := range chaosSchedules {
					pt, ds, ss, err := chaosRun(backend, lanes, loss, sched.Kills, sched.At)
					if err != nil {
						return rep, err
					}
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

// chaosRun executes one point and returns it plus the per-survivor
// detection and shrink latency samples.
func chaosRun(backend string, lanes int, loss float64, kills string, killAt []time.Duration) (ChaosPoint, []float64, []float64, error) {
	pt := ChaosPoint{Backend: backend, Lanes: lanes, Kills: kills, Loss: loss, Failures: len(killAt)}
	spec := registry.SpecFor(backend)
	spec.Ranks = chaosRanks
	spec.Kills = kills
	if lanes > 1 {
		spec.Lanes = lanes
	}
	if loss > 0 {
		spec.LossRate = loss
		spec.FaultSeed = faultsSeed
	}
	w, err := registry.Build(spec)
	if err != nil {
		return pt, nil, nil, fmt.Errorf("chaos %s lanes=%d: %v", backend, lanes, err)
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
	victim := make(map[int]bool, len(killAt))
	want := int64(0)
	if kills != "" {
		ks, err := atm.ParseKills(kills)
		if err != nil {
			return pt, nil, nil, err
		}
		for _, k := range ks {
			victim[k.Rank] = true
		}
	}
	for r := 0; r < chaosRanks; r++ {
		if !victim[r] {
			want += int64(r) + 1
		}
	}
	firstKill := time.Duration(0)
	for i, at := range killAt {
		if i == 0 || at < firstKill {
			firstKill = at
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
	fmt.Fprintf(&b, "%-18s %5s %6s %-16s %8s %7s %10s %10s %10s\n",
		"backend", "lanes", "loss", "kills", "survived", "shrinks", "detect us", "shrink us", "elapsed us")
	for _, p := range r.Points {
		kills := p.Kills
		if kills == "" {
			kills = "-"
		}
		fmt.Fprintf(&b, "%-18s %5d %5.0f%% %-16s %8v %7d %10.1f %10.1f %10.1f\n",
			p.Backend, p.Lanes, p.Loss*100, kills, p.Survived, p.Shrinks, p.DetectUS, p.ShrinkUS, p.ElapsedUS)
	}
	return b.String()
}

// checkChaos gates the sweep. Static floors, baseline or not: every
// fault-free point and every single-failure point must survive (the
// multi-failure points are reported, not gated). Against a committed
// baseline: survival must not drop anywhere, no point may disappear, and
// detection/shrink latency may not regress more than suiteTol on any point
// that both runs survived.
func checkChaos(r ChaosReport, base *ChaosReport) []string {
	var fails []string
	for _, p := range r.Points {
		if p.Failures <= 1 && !p.Survived {
			fails = append(fails, fmt.Sprintf("%s lanes=%d loss=%g kills=%q: world did not survive a %d-failure schedule",
				p.Backend, p.Lanes, p.Loss, p.Kills, p.Failures))
		}
	}
	if base == nil {
		return fails
	}
	survived := func(p ChaosPoint) bool { return p.Survived }
	return append(fails, drift("point", r.Points, base.Points,
		func(p ChaosPoint) string { return fmt.Sprintf("%s|%d|%g|%s", p.Backend, p.Lanes, p.Loss, p.Kills) }, suiteTol,
		higher("survived", func(p ChaosPoint) float64 {
			if p.Survived {
				return 1
			}
			return 0
		}),
		lower("detection us", func(p ChaosPoint) float64 { return p.DetectUS }).when(survived),
		lower("shrink us", func(p ChaosPoint) float64 { return p.ShrinkUS }).when(survived))...)
}
