package bench

import (
	"fmt"
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

// The rma suite: one-sided communication cost on the backends with a
// native remote-memory primitive, and on the socket transports, which
// emulate a window over matched sends inside the closing fence.
//
// Every number is virtual time, so the record is deterministic and the
// gate compares values exactly as committed: a moved point is a model
// change, not host noise.

// RMAPoint is one Put+Fence epoch: a genuine one-sided transfer on a
// native-RMA backend, or on a socket transport the emulation that deflates
// to matched messages inside the closing fence.
type RMAPoint struct {
	Backend string  `json:"backend"`
	Bytes   int     `json:"bytes"`
	EpochUS float64 `json:"epoch_us"`
}

// RMAReport is the machine-readable record cmd/repro writes as
// BENCH_rma.json. The committed copy is the baseline CI gates against.
type RMAReport struct {
	Iters  int        `json:"iters"`
	Puts   []RMAPoint `json:"puts"`
	Fences []RMAPoint `json:"fences"`
}

// rmaEpoch measures rank 0 Putting n bytes into rank 1's window each
// epoch, reporting the mean Put+Fence epoch time in microseconds. native
// names the path the world must take: a genuine one-sided transfer, or the
// emulation that deflates to matched messages inside the closing fence.
func rmaEpoch(x *runner, spec registry.Spec, n, iters int, native bool) (float64, error) {
	var per time.Duration
	_, err := x.launch(spec, func(c *mpi.Comm) error {
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

// rmaSweep is the one-sided sweep: native Puts on the backends whose
// transports implement core.RemoteMemory, emulated ones on the sockets.
func rmaSweep(o Opts) sweep[RMAReport] {
	grid := func(backends []string, sizes ...int) (ps []RMAPoint) {
		for _, name := range backends {
			for _, n := range sizes {
				ps = append(ps, RMAPoint{Backend: name, Bytes: n})
			}
		}
		return ps
	}
	return sweep[RMAReport]{
		skeleton: func() RMAReport {
			return RMAReport{o.Norm().Iters, grid([]string{"mem", "meiko/lowlatency", "cluster/shm"}, 1<<10, 16<<10, 64<<10, 256<<10, 1<<20),
				grid([]string{"cluster/tcp", "cluster/udp"}, 4<<10, 256<<10, 1<<20)}
		},
		points: func(r *RMAReport) []point {
			epoch := func(native bool) func(x *runner, p RMAPoint) (RMAPoint, error) {
				return func(x *runner, p RMAPoint) (RMAPoint, error) {
					spec := registry.SpecFor(p.Backend)
					spec.Ranks = 2
					us, err := rmaEpoch(x, spec, p.Bytes, r.Iters, native)
					return RMAPoint{p.Backend, p.Bytes, us}, err
				}
			}
			return append(each(r.Puts, rmaKey, epoch(true)), each(r.Fences, rmaKey, epoch(false))...)
		},
	}
}

// rmaKey names one point of either of the report's lists.
func rmaKey(p RMAPoint) string { return key("rma", p.Backend, p.Bytes) }
