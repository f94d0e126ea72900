package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

// The rma suite: one-sided communication cost on the backends with a
// native remote-memory primitive, and on the socket transports, which
// emulate a window over matched sends inside the closing fence.
//
// Every number is virtual time, so the record is deterministic and the
// gate compares values exactly as committed: a drift is a model change,
// not host noise.

// RMAPutPoint is one Put+Fence epoch measurement on a native-RMA backend.
type RMAPutPoint struct {
	Backend string  `json:"backend"`
	Bytes   int     `json:"bytes"`
	EpochUS float64 `json:"epoch_us"`
}

// RMAFencePoint is one emulated Put+Fence epoch on a socket transport,
// where one-sided operations deflate to matched messages inside the
// closing fence.
type RMAFencePoint struct {
	Backend string  `json:"backend"`
	Bytes   int     `json:"bytes"`
	EpochUS float64 `json:"epoch_us"`
}

// RMAReport is the machine-readable record cmd/repro writes as
// BENCH_rma.json. The committed copy is the baseline CI gates against
// (see checkRMA).
type RMAReport struct {
	Iters  int             `json:"iters"`
	Puts   []RMAPutPoint   `json:"puts"`
	Fences []RMAFencePoint `json:"fences"`
}

// rmaEpoch measures rank 0 Putting n bytes into rank 1's window each
// epoch, reporting the mean Put+Fence epoch time in microseconds. native
// names the path the world must take: a genuine one-sided transfer, or the
// emulation that deflates to matched messages inside the closing fence.
func rmaEpoch(spec registry.Spec, n, iters int, native bool) (float64, error) {
	var per time.Duration
	_, err := registry.Run(spec, func(c *mpi.Comm) error {
		win, err := c.WinCreate(n)
		if err != nil {
			return err
		}
		if win.Native() != native {
			return fmt.Errorf("rma bench wants native=%v, the window reports %v", native, win.Native())
		}
		data := make([]byte, n)
		if err := win.Fence(); err != nil {
			return err
		}
		start := c.Wtime()
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				if err := win.Put(1, 0, data); err != nil {
					return err
				}
			}
			if err := win.Fence(); err != nil {
				return err
			}
		}
		per = (c.Wtime() - start) / time.Duration(iters)
		return win.Free()
	})
	return float64(per) / 1e3, err
}

// The swept transfer sizes.
var (
	rmaPutSizes   = []int{1 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	rmaFenceSizes = []int{4 << 10, 256 << 10, 1 << 20}
)

// rmaNativeBackends lists the backends whose transports implement
// core.RemoteMemory, i.e. where Put is a genuine one-sided transfer.
var rmaNativeBackends = []string{"mem", "meiko/lowlatency", "cluster/shm"}

// RMABench runs the one-sided sweep, native and emulated.
func RMABench(o Opts) (RMAReport, error) {
	o = o.Norm()
	rep := RMAReport{Iters: o.Iters}
	for _, name := range rmaNativeBackends {
		for _, n := range rmaPutSizes {
			spec := registry.SpecFor(name)
			spec.Ranks = 2
			us, err := rmaEpoch(spec, n, o.Iters, true)
			if err != nil {
				return rep, fmt.Errorf("rma %s %dB: %v", name, n, err)
			}
			rep.Puts = append(rep.Puts, RMAPutPoint{Backend: name, Bytes: n, EpochUS: us})
		}
	}
	for _, tr := range []string{"tcp", "udp"} {
		for _, n := range rmaFenceSizes {
			spec := registry.Spec{Platform: "cluster", Transport: tr, Ranks: 2}
			us, err := rmaEpoch(spec, n, o.Iters, false)
			if err != nil {
				return rep, fmt.Errorf("fence cluster/%s %dB: %v", tr, n, err)
			}
			rep.Fences = append(rep.Fences, RMAFencePoint{Backend: "cluster/" + tr, Bytes: n, EpochUS: us})
		}
	}
	return rep, nil
}

// FormatRMA renders the report as the text tables the CLI prints.
func FormatRMA(r RMAReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "One-sided communication (%d iters)\n", r.Iters)
	fmt.Fprintf(&b, "  %-20s %10s %14s\n", "backend", "bytes", "Put+Fence us")
	for _, p := range r.Puts {
		fmt.Fprintf(&b, "  %-20s %10d %14.1f\n", p.Backend, p.Bytes, p.EpochUS)
	}
	if len(r.Fences) > 0 {
		fmt.Fprintf(&b, "\nEmulated Put+Fence over matched sends\n")
		fmt.Fprintf(&b, "  %-20s %10s %12s\n", "backend", "bytes", "epoch us")
		for _, p := range r.Fences {
			fmt.Fprintf(&b, "  %-20s %10d %12.1f\n", p.Backend, p.Bytes, p.EpochUS)
		}
	}
	return b.String()
}

// rmaKey names one point of either of the report's lists.
func rmaKey(backend string, bytes int) string { return fmt.Sprintf("%s/%d", backend, bytes) }

// checkRMA gates a fresh report against a baseline: Put and fence epochs
// are virtual time and must not regress beyond suiteTol.
func checkRMA(cur RMAReport, base *RMAReport) []string {
	if base == nil {
		return nil
	}
	fails := drift("put point", cur.Puts, base.Puts,
		func(p RMAPutPoint) string { return rmaKey(p.Backend, p.Bytes) }, suiteTol,
		lower("Put+Fence us", func(p RMAPutPoint) float64 { return p.EpochUS }))
	return append(fails, drift("fence point", cur.Fences, base.Fences,
		func(p RMAFencePoint) string { return rmaKey(p.Backend, p.Bytes) }, suiteTol,
		lower("emulated fence us", func(p RMAFencePoint) float64 { return p.EpochUS }))...)
}
