package bench

import (
	"fmt"

	"repro/platform/registry"
)

// The faults suite: how the reliable-UDP transport degrades as the fault
// layer injects datagram loss — its adaptive RTO and fast retransmit absorb
// the loss at a measurable latency and bandwidth cost. It is the one cluster
// transport whose wire can drop a frame: TCP segments and U-Net frames ride
// links whose loss recovery the model deliberately omits (TCP is treated as
// a reliable stream; the U-Net switch links are flow controlled), so the
// builder rejects a loss rate on them and they have no row here.

// FaultsReport is the machine-readable record of one sweep
// (BENCH_faults.json).
type FaultsReport struct {
	Ranks     int             `json:"ranks"`
	Iters     int             `json:"iters"`
	FaultSeed int64           `json:"fault_seed"`
	LossRates []float64       `json:"loss_rates"`
	Backends  []FaultsBackend `json:"backends"`
}

// FaultsBackend holds one transport's series across the swept loss rates:
// 1-byte round-trip latency, 64 KB-chunk streaming bandwidth, and the frames
// both runs of a cell sent again (every rank's rudp.retransmit).
type FaultsBackend struct {
	Backend      string    `json:"backend"`
	LatencyUS    []float64 `json:"latency_us"`
	BandwidthMBs []float64 `json:"bandwidth_mbs"`
	Retransmits  []int64   `json:"retransmits"`
}

// faultsSeed pins the fault RNG so the sweep is reproducible run to run.
const faultsSeed = 42

// faultsSweep is 1-byte latency, bandwidth and retransmits across injected
// loss rates on cluster/udp.
func faultsSweep(o Opts) sweep[FaultsReport] {
	return sweep[FaultsReport]{
		skeleton: func() FaultsReport {
			rates := []float64{0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1}
			return FaultsReport{
				Ranks:     2,
				Iters:     o.Norm().Iters,
				FaultSeed: faultsSeed,
				LossRates: rates,
				Backends: []FaultsBackend{{
					Backend:      "cluster/udp",
					LatencyUS:    make([]float64, len(rates)),
					BandwidthMBs: make([]float64, len(rates)),
					Retransmits:  make([]int64, len(rates)),
				}},
			}
		},
		points: func(r *FaultsReport) []point {
			var pts []point
			for _, fb := range r.Backends {
				for i, rate := range r.LossRates {
					cell := &struct {
						LatencyUS    *float64 `json:"latency_us"`
						BandwidthMBs *float64 `json:"bandwidth_mbs"`
						Retransmits  *int64   `json:"retransmits"`
					}{&fb.LatencyUS[i], &fb.BandwidthMBs[i], &fb.Retransmits[i]}
					pts = append(pts, point{key("faults", fb.Backend, rate), cell, func(x *runner) error {
						spec := registry.SpecFor(fb.Backend)
						spec.Ranks, spec.LossRate, spec.FaultSeed = r.Ranks, rate, r.FaultSeed
						// A handful of round trips would likely dodge a 0.1%
						// loss rate entirely; scale the iteration counts so
						// retransmission effects are actually sampled.
						lat, latRep, err := x.pingPong(spec, 1, 40*r.Iters)
						if err != nil {
							return err
						}
						bw, bwRep, err := x.bandwidth(spec, 64*1024, 4*r.Iters)
						if err != nil {
							return err
						}
						*cell.LatencyUS, *cell.BandwidthMBs = lat, bw
						*cell.Retransmits = latRep.Acct.Count["rudp.retransmit"] + bwRep.Acct.Count["rudp.retransmit"]
						return nil
					}})
				}
			}
			return pts
		},
	}
}

// checkFaults is the sweep's static floor: a loss-free cell retransmits
// nothing (ROADMAP item 3). A timer that expires before a frame's bytes can
// have crossed the wire fails it.
func checkFaults(cur FaultsReport) []string {
	var out []string
	for _, fb := range cur.Backends {
		for i, rate := range cur.LossRates {
			if rate == 0 && (i >= len(fb.Retransmits) || fb.Retransmits[i] != 0) {
				out = append(out, fmt.Sprintf("%s at 0%% loss: retransmits %v, want 0", fb.Backend, fb.Retransmits))
			}
		}
	}
	return out
}
