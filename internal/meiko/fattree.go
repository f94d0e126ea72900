package meiko

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// The CS/2's data network is a 4-ary fat tree of Elite switches. The
// default Machine model charges a flat WireLatency per packet — adequate
// for the paper's two-node microbenchmarks — but application traffic at
// scale contends inside the tree. FatTree is an optional topology model.
//
// A fat tree has full bisection bandwidth, so the ascending half of a
// route never contends (there is an up-link per node at every stage), and
// each stage-s subtree is entered by radix^s parallel down-links.
// Descending is where congestion lives: flows converging into the same
// subtree lane serialize, with the leaf group's single link the classic
// incast bottleneck. The model charges hop latency per stage climbed, then
// reserves the down-link lane (selected by source, standing in for the
// deterministic source routing of the Elite switches) at each descent
// stage.
type FatTree struct {
	m      *Machine
	radix  int
	stages int
	stage  *sim.Stage      // lane-routable home for the shared switch state
	down   [][][]*sim.FIFO // down[stage][subtree][lane]
	faults []TreeFault
	// HopLatency is the per-switch traversal latency.
	HopLatency sim.Duration
}

// TreeFault takes one switch plane out of service for a window of
// simulated time: every down-link with lane index Lane at stage Stage is
// unusable from From until Until. The fat tree's redundant upper stages
// make this survivable — at every stage above the leaves a destination
// subtree is entered by radix^stage parallel down-links, so traffic
// reroutes through a neighbouring plane at an extra hop of latency per
// detour (the adaptive source-routing cost of crossing to the next Elite
// switch). Stage 0 is deliberately not faultable: a leaf group hangs off a
// single link, so losing it is a node death, not degradation — model that
// with a kill schedule instead.
type TreeFault struct {
	Stage int          // faulted stage, >= 1 (upper stages have redundant planes)
	Lane  int          // down-link lane index within each subtree at that stage
	From  sim.Duration // window start
	Until sim.Duration // window end; 0 means for the rest of the run
}

// SetFaults installs the switch-fault schedule, validating it against the
// tree's geometry.
func (t *FatTree) SetFaults(faults []TreeFault) error {
	for _, f := range faults {
		if f.Stage < 1 || f.Stage >= t.stages {
			return fmt.Errorf("meiko: tree fault stage %d out of range [1,%d) (stage 0 leaf links have no redundant plane)", f.Stage, t.stages)
		}
		if f.Lane < 0 || f.Lane >= pow(t.radix, f.Stage) {
			return fmt.Errorf("meiko: tree fault lane %d out of range [0,%d) at stage %d", f.Lane, pow(t.radix, f.Stage), f.Stage)
		}
		if f.Until != 0 && f.Until <= f.From {
			return fmt.Errorf("meiko: tree fault window [%v,%v) is empty", f.From, f.Until)
		}
	}
	t.faults = faults
	return nil
}

// blockedAt reports whether the (stage, lane) plane is faulted at the
// instant the route is being reserved.
func (t *FatTree) blockedAt(stage, lane int, at sim.Time) bool {
	for _, f := range t.faults {
		if f.Stage == stage && f.Lane == lane &&
			sim.Time(f.From) <= at && (f.Until == 0 || at < sim.Time(f.Until)) {
			return true
		}
	}
	return false
}

// ParseTreeFaults parses a switch-fault schedule DSL: semicolon-separated
// entries of the form "STAGE:LANE@FROM-UNTIL", with UNTIL optional.
//
//	"1:0@5ms-20ms"        stage-1 plane 0 down between 5 ms and 20 ms
//	"1:0@5ms;2:3@0s-1ms"  two faults, the first permanent from 5 ms
func ParseTreeFaults(spec string) ([]TreeFault, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []TreeFault
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		plane, window, ok := strings.Cut(entry, "@")
		if !ok {
			return nil, fmt.Errorf("tree fault %q: want STAGE:LANE@FROM[-UNTIL]", entry)
		}
		stageStr, laneStr, ok := strings.Cut(plane, ":")
		if !ok {
			return nil, fmt.Errorf("tree fault %q: want STAGE:LANE before @", entry)
		}
		stage, err := strconv.Atoi(strings.TrimSpace(stageStr))
		if err != nil || stage < 1 {
			return nil, fmt.Errorf("tree fault %q: bad stage %q (must be >= 1)", entry, stageStr)
		}
		lane, err := strconv.Atoi(strings.TrimSpace(laneStr))
		if err != nil || lane < 0 {
			return nil, fmt.Errorf("tree fault %q: bad lane %q", entry, laneStr)
		}
		f := TreeFault{Stage: stage, Lane: lane}
		fromStr, untilStr, hasUntil := strings.Cut(window, "-")
		if f.From, err = time.ParseDuration(strings.TrimSpace(fromStr)); err != nil {
			return nil, fmt.Errorf("tree fault %q: bad start %q: %v", entry, fromStr, err)
		}
		if hasUntil {
			if f.Until, err = time.ParseDuration(strings.TrimSpace(untilStr)); err != nil {
				return nil, fmt.Errorf("tree fault %q: bad end %q: %v", entry, untilStr, err)
			}
			if f.Until <= f.From {
				return nil, fmt.Errorf("tree fault %q: window [%v,%v) is empty", entry, f.From, f.Until)
			}
		}
		out = append(out, f)
	}
	return out, nil
}

// NewFatTree attaches a radix-4 fat tree sized to cover all nodes. On a
// sharded machine the tree's switch state homes on lane 0 as a sim.Stage:
// every delivery detours there with its source stamp, reserves the
// wormhole route backdated to the stamp, and exits to the destination's
// lane — so the shard lookahead must not exceed HopLatency (the minimum
// stamp-to-exit span is 2 hop latencies, the required 2x lookahead bound).
func (m *Machine) NewFatTree() *FatTree {
	const radix = 4
	stages := 1
	cover := radix
	for cover < len(m.Nodes) {
		cover *= radix
		stages++
	}
	t := &FatTree{m: m, radix: radix, stages: stages, HopLatency: m.Costs.WireLatency / 2}
	if t.HopLatency <= 0 {
		t.HopLatency = 1
	}
	if t.HopLatency < m.S.Lookahead() {
		panic(fmt.Sprintf("meiko: fat-tree hop latency %v below shard lookahead %v", t.HopLatency, m.S.Lookahead()))
	}
	t.stage = sim.NewStage(m.S)
	t.down = make([][][]*sim.FIFO, stages)
	for s := 0; s < stages; s++ {
		nsub := (len(m.Nodes) + pow(radix, s+1) - 1) / pow(radix, s+1)
		lanes := pow(radix, s)
		t.down[s] = make([][]*sim.FIFO, nsub)
		for g := 0; g < nsub; g++ {
			t.down[s][g] = make([]*sim.FIFO, lanes)
			for l := 0; l < lanes; l++ {
				t.down[s][g][l] = sim.NewFIFO(m.S, fmt.Sprintf("ft-down-s%d-g%d-l%d", s, g, l))
			}
		}
	}
	return t
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// climb reports the stage count to the nearest common ancestor switch.
func (t *FatTree) climb(src, dst int) int {
	for s := 0; s < t.stages; s++ {
		span := pow(t.radix, s+1)
		if src/span == dst/span {
			return s + 1
		}
	}
	return t.stages
}

// Deliver carries nbytes from src to dst through the tree at the given
// serialization rate, then runs fn. The Elite switches are
// wormhole-routed, so the whole descending path is reserved jointly for
// one serialization span: the transfer starts when every lane on the
// route is free and occupies them all together — the ascent contributes
// hop latency only (full bisection). Event-context safe; must be called
// from src's lane context on a sharded machine. fn runs on dst's lane.
func (t *FatTree) Deliver(src, dst, nbytes int, perByte sim.Duration, fn func()) {
	hops := t.climb(src, dst)
	d := sim.Duration(nbytes) * perByte
	t.stage.Request(t.m.Nodes[src].S, func(t0 sim.Time) {
		// Collect the route's down-link lanes, detouring around faulted
		// planes: the primary lane is the deterministic dispersive pick
		// (Fibonacci hash of the source, standing in for the Elite
		// switches' source routing); when its plane is down the route
		// crosses to the next plane at one extra hop of latency per
		// detour. If every plane at a stage is down the primary is used
		// anyway — degraded, never dead.
		route := make([]*sim.FIFO, 0, hops)
		detours := 0
		for stage := hops - 1; stage >= 0; stage-- {
			lanes := t.down[stage][dst/pow(t.radix, stage+1)]
			h := int(uint32(src)*2654435761>>16) % len(lanes)
			pick := h
			if t.blockedAt(stage, pick, t0) {
				for i := 1; i < len(lanes); i++ {
					alt := (h + i) % len(lanes)
					detours++
					if !t.blockedAt(stage, alt, t0) {
						pick = alt
						break
					}
				}
			}
			route = append(route, lanes[pick])
		}
		start := t0
		for _, l := range route {
			if l.BusyUntil() > start {
				start = l.BusyUntil()
			}
		}
		end := start + sim.Time(d)
		for _, l := range route {
			l.ExtendBusy(end)
		}
		t.stage.Exit(t.m.Nodes[dst].Lane, end+sim.Time(sim.Duration(2*hops+detours)*t.HopLatency), fn)
	})
}

// Stages reports the tree depth.
func (t *FatTree) Stages() int { return t.stages }
