package bench

import (
	"fmt"
	"strings"

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

// Faults sweeps 1-byte latency and bandwidth across injected loss rates on
// cluster/udp.
func Faults(o Opts) (FaultsReport, error) {
	rep := FaultsReport{
		Ranks:     2,
		Iters:     o.Iters,
		FaultSeed: faultsSeed,
		LossRates: []float64{0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1},
	}
	const chunk = 64 * 1024
	// A handful of round trips would likely dodge a 0.1% loss rate
	// entirely; scale the iteration counts so retransmission effects are
	// actually sampled.
	pingIters := 40 * o.Iters
	bwIters := 4 * o.Iters
	fb := FaultsBackend{Backend: "cluster/udp"}
	for _, rate := range rep.LossRates {
		spec := registry.Spec{
			Platform:  "cluster",
			Transport: "udp",
			Ranks:     2,
			LossRate:  rate,
			FaultSeed: faultsSeed,
		}
		lat, latRep, err := pingPongReport(spec, 1, pingIters)
		if err != nil {
			return rep, fmt.Errorf("%s latency at loss %g: %v", fb.Backend, rate, err)
		}
		bw, bwRep, err := bandwidthReport(spec, chunk, bwIters)
		if err != nil {
			return rep, fmt.Errorf("%s bandwidth at loss %g: %v", fb.Backend, rate, err)
		}
		fb.LatencyUS = append(fb.LatencyUS, lat)
		fb.BandwidthMBs = append(fb.BandwidthMBs, bw)
		fb.Retransmits = append(fb.Retransmits, latRep.Acct.Count["rudp.retransmit"]+bwRep.Acct.Count["rudp.retransmit"])
	}
	rep.Backends = []FaultsBackend{fb}
	return rep, nil
}

// FormatFaults renders the sweep as the text tables the CLI prints.
func FormatFaults(r FaultsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault sweep: injected datagram loss (seed %d, %d iters)\n", r.FaultSeed, r.Iters)
	b.WriteString("TCP and U-Net frames are not droppable (loss recovery out of model): no rows.\n\n")
	row := func(name string, cells func(fb FaultsBackend) []float64, unit string, prec int) {
		fmt.Fprintf(&b, "%-24s", name)
		for _, rate := range r.LossRates {
			fmt.Fprintf(&b, "%11s", fmt.Sprintf("%g%%", rate*100))
		}
		b.WriteByte('\n')
		for _, fb := range r.Backends {
			fmt.Fprintf(&b, "%-24s", fb.Backend)
			for _, v := range cells(fb) {
				fmt.Fprintf(&b, "%11.*f", prec, v)
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-24s(%s)\n\n", "", unit)
	}
	row("1B round trip / loss", func(fb FaultsBackend) []float64 { return fb.LatencyUS }, "us", 1)
	row("64KB bandwidth / loss", func(fb FaultsBackend) []float64 { return fb.BandwidthMBs }, "MB/s", 1)
	row("retransmits / loss", func(fb FaultsBackend) []float64 {
		n := make([]float64, len(fb.Retransmits))
		for i, v := range fb.Retransmits {
			n[i] = float64(v)
		}
		return n
	}, "frames", 0)
	return b.String()
}

// checkFaults is the sweep's static floor: a loss-free cell retransmits
// nothing (ROADMAP item 3). A timer that expires before a frame's bytes can
// have crossed the wire fails it.
func checkFaults(cur FaultsReport, _ *FaultsReport) []string {
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
