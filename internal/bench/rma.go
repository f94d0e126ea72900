package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

// The rma suite: one-sided communication cost on the backends with a
// native remote-memory primitive, plus the RDMA-write rendezvous ablation
// on the socket transports — the same large two-sided transfer with the
// receiver's pre-posted buffer advertised (the sender writes data
// directly) versus pinned to the classic RTS/CTS round trip.
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

// RMARendezvousPoint compares a pre-posted large-message ping-pong with
// the RDMA-write rendezvous enabled against the same exchange pinned to
// RTS/CTS. Speedup > 1 means skipping the CTS round trip paid off.
type RMARendezvousPoint struct {
	Backend    string  `json:"backend"`
	Bytes      int     `json:"bytes"`
	RTRUS      float64 `json:"rtr_us"`
	TwoSidedUS float64 `json:"two_sided_us"`
	Speedup    float64 `json:"speedup"`
}

// RMAFencePoint is one emulated Put+Fence epoch on a socket transport,
// where one-sided operations deflate to matched messages inside the
// closing fence. RTRPerEpoch counts the rendezvous transfers that rode
// the receiver-ready RDMA-write fast path per epoch: a bulk fence must
// keep it above zero, proving the exchange pre-posts its receives rather
// than round-tripping RTS/CTS.
type RMAFencePoint struct {
	Backend     string  `json:"backend"`
	Bytes       int     `json:"bytes"`
	EpochUS     float64 `json:"epoch_us"`
	RTRPerEpoch float64 `json:"rtr_per_epoch"`
}

// RMAReport is the machine-readable record cmd/repro writes as
// BENCH_rma.json. The committed copy is the baseline CI gates against
// (see checkRMA).
type RMAReport struct {
	Iters      int                  `json:"iters"`
	Puts       []RMAPutPoint        `json:"puts"`
	Rendezvous []RMARendezvousPoint `json:"rendezvous"`
	Fences     []RMAFencePoint      `json:"fences"`
}

// rmaEpoch measures rank 0 Putting n bytes into rank 1's window each
// epoch, reporting the mean Put+Fence epoch time in microseconds and how
// many rendezvous transfers took the RTR fast path per epoch (the merged
// rndv-rtr counter). native names the path the world must take: a genuine
// one-sided transfer, or the emulation that deflates to matched messages
// inside the closing fence.
func rmaEpoch(spec registry.Spec, n, iters int, native bool) (float64, float64, error) {
	var per time.Duration
	rep, err := registry.Run(spec, func(c *mpi.Comm) error {
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
	if err != nil {
		return 0, 0, err
	}
	return float64(per) / 1e3, float64(rep.Acct.Count["rndv-rtr"]) / float64(iters), nil
}

// prePostedPingPong measures an n-byte ping-pong where both sides post
// their receive (and let the advert propagate under a barrier) before the
// matching send starts — the shape the RDMA-write rendezvous accelerates.
// Reports the mean round trip, barrier included, in microseconds.
func prePostedPingPong(spec registry.Spec, n, iters int) (float64, error) {
	var rtt time.Duration
	_, err := registry.Run(spec, func(c *mpi.Comm) error {
		data := make([]byte, n)
		buf := make([]byte, n)
		peer := 1 - c.Rank()
		start := c.Wtime()
		for i := 0; i < iters; i++ {
			r, err := c.Irecv(peer, 0, buf)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				if err := c.Send(peer, 0, data); err != nil {
					return err
				}
				if _, err := r.Wait(); err != nil {
					return err
				}
			} else {
				if _, err := r.Wait(); err != nil {
					return err
				}
				if err := c.Send(peer, 0, data); err != nil {
					return err
				}
			}
		}
		rtt = (c.Wtime() - start) / time.Duration(iters)
		return nil
	})
	return float64(rtt) / 1e3, err
}

// The swept transfer sizes. The gate's RTR floor applies to the rendezvous
// sizes from rmaGateBytes up; every emulated fence of 64 KiB or more must
// ride the RTR fast path.
var (
	rmaPutSizes        = []int{1 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	rmaRendezvousSizes = []int{64 << 10, 256 << 10, 1 << 20, 4 << 20}
	rmaFenceSizes      = []int{4 << 10, 256 << 10, 1 << 20}
)

// rmaNativeBackends lists the backends whose transports implement
// core.RemoteMemory, i.e. where Put is a genuine one-sided transfer.
var rmaNativeBackends = []string{"mem", "meiko/lowlatency", "cluster/shm"}

// RMABench runs the one-sided sweep and the rendezvous ablation.
func RMABench(o Opts) (RMAReport, error) {
	o = o.Norm()
	rep := RMAReport{Iters: o.Iters}
	for _, name := range rmaNativeBackends {
		for _, n := range rmaPutSizes {
			spec := registry.SpecFor(name)
			spec.Ranks = 2
			us, _, err := rmaEpoch(spec, n, o.Iters, true)
			if err != nil {
				return rep, fmt.Errorf("rma %s %dB: %v", name, n, err)
			}
			rep.Puts = append(rep.Puts, RMAPutPoint{Backend: name, Bytes: n, EpochUS: us})
		}
	}
	for _, tr := range []string{"tcp", "udp"} {
		for _, n := range rmaRendezvousSizes {
			point := RMARendezvousPoint{Backend: "cluster/" + tr, Bytes: n}
			for _, noRTR := range []bool{false, true} {
				spec := registry.Spec{Platform: "cluster", Transport: tr, Ranks: 2, NoRTR: noRTR}
				us, err := prePostedPingPong(spec, n, o.Iters)
				if err != nil {
					return rep, fmt.Errorf("rendezvous %s %dB: %v", point.Backend, n, err)
				}
				if noRTR {
					point.TwoSidedUS = us
				} else {
					point.RTRUS = us
				}
			}
			if point.RTRUS > 0 {
				point.Speedup = point.TwoSidedUS / point.RTRUS
			}
			rep.Rendezvous = append(rep.Rendezvous, point)
		}
	}
	for _, tr := range []string{"tcp", "udp"} {
		for _, n := range rmaFenceSizes {
			spec := registry.Spec{Platform: "cluster", Transport: tr, Ranks: 2}
			us, rtr, err := rmaEpoch(spec, n, o.Iters, false)
			if err != nil {
				return rep, fmt.Errorf("fence cluster/%s %dB: %v", tr, n, err)
			}
			rep.Fences = append(rep.Fences, RMAFencePoint{
				Backend: "cluster/" + tr, Bytes: n, EpochUS: us, RTRPerEpoch: rtr,
			})
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
	fmt.Fprintf(&b, "\nRDMA-write rendezvous vs RTS/CTS (pre-posted ping-pong)\n")
	fmt.Fprintf(&b, "  %-20s %10s %12s %12s %9s\n", "backend", "bytes", "rtr us", "rts/cts us", "speedup")
	for _, p := range r.Rendezvous {
		fmt.Fprintf(&b, "  %-20s %10d %12.1f %12.1f %8.2fx\n", p.Backend, p.Bytes, p.RTRUS, p.TwoSidedUS, p.Speedup)
	}
	if len(r.Fences) > 0 {
		fmt.Fprintf(&b, "\nEmulated Put+Fence over matched sends (rendezvous fast-path usage)\n")
		fmt.Fprintf(&b, "  %-20s %10s %12s %14s\n", "backend", "bytes", "epoch us", "rtr/epoch")
		for _, p := range r.Fences {
			fmt.Fprintf(&b, "  %-20s %10d %12.1f %14.1f\n", p.Backend, p.Bytes, p.EpochUS, p.RTRPerEpoch)
		}
	}
	return b.String()
}

// rmaGateBytes is the transfer size from which the RDMA-write rendezvous
// must beat the two-sided path on every cluster socket transport — the
// acceptance bar for skipping the CTS round trip.
const rmaGateBytes = 1 << 20

// rmaKey names one point of any of the report's three lists.
func rmaKey(backend string, bytes int) string { return fmt.Sprintf("%s/%d", backend, bytes) }

// checkRMA gates a fresh report. The static floor applies with or without
// a baseline: every rendezvous point at or above rmaGateBytes must show
// speedup > 1. Against a baseline, a speedup regression beyond suiteTol
// fails; Put and fence epochs are virtual time and must not regress beyond
// it either.
func checkRMA(cur RMAReport, base *RMAReport) []string {
	var fails []string
	gated := 0
	for _, p := range cur.Rendezvous {
		if p.Bytes >= rmaGateBytes {
			gated++
			if p.Speedup <= 1.0 {
				fails = append(fails, fmt.Sprintf("%s %dB: rendezvous speedup %.3fx, want >1 (RTR must beat RTS/CTS)", p.Backend, p.Bytes, p.Speedup))
			}
		}
	}
	if gated == 0 {
		fails = append(fails, fmt.Sprintf("no rendezvous point at >=%d bytes; the RTR gate did not run", rmaGateBytes))
	}
	// Bulk emulated fences must prove they rode the fast path: the blob
	// exchange pre-posts receives under a barrier exactly so that no RTS
	// finds an unmatched queue.
	for _, p := range cur.Fences {
		if p.Bytes >= 64<<10 && p.RTRPerEpoch <= 0 {
			fails = append(fails, fmt.Sprintf("%s %dB: emulated fence took the RTR fast path %.1f times/epoch, want >0", p.Backend, p.Bytes, p.RTRPerEpoch))
		}
	}
	if base == nil {
		return fails
	}
	fails = append(fails, drift("rendezvous point", cur.Rendezvous, base.Rendezvous,
		func(p RMARendezvousPoint) string { return rmaKey(p.Backend, p.Bytes) }, suiteTol,
		higher("speedup", func(p RMARendezvousPoint) float64 { return p.Speedup }))...)
	fails = append(fails, drift("put point", cur.Puts, base.Puts,
		func(p RMAPutPoint) string { return rmaKey(p.Backend, p.Bytes) }, suiteTol,
		lower("Put+Fence us", func(p RMAPutPoint) float64 { return p.EpochUS }))...)
	return append(fails, drift("fence point", cur.Fences, base.Fences,
		func(p RMAFencePoint) string { return rmaKey(p.Backend, p.Bytes) }, suiteTol,
		lower("emulated fence us", func(p RMAFencePoint) float64 { return p.EpochUS }))...)
}
