// Package meiko runs MPI jobs on the modeled Meiko CS/2, providing both
// implementations the paper compares in Figures 2, 3, 7 and 8:
//
//   - LowLatency: the paper's contribution — matching on the SPARC inside
//     MPI calls, eager transfers overlapped with matching into per-sender
//     envelope slots (one outstanding message per pair), direct DMA above
//     the 180-byte crossover, and MPI_Bcast on the hardware broadcast.
//   - MPICH: the ANL/MSU baseline — MPI over the tport widget, with
//     matching performed in the background on the Elan co-processor and
//     broadcast built from point-to-point messages.
package meiko

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/meiko"
	"repro/internal/sim"
	"repro/mpi"
	"repro/platform/registry"
)

// DefaultEager is the paper's measured crossover point (Figure 1).
const DefaultEager = 180

// build constructs the machine and per-rank endpoints for s under impl
// ("lowlatency" | "mpich"). s.Lanes > 1 builds the world on the sharded
// kernel: nodes block-mapped onto that many lanes, with the wire latency as
// the lookahead bound. s.Eager is used by the low-latency implementation only;
// s.EnvelopeSlots is the number of preallocated envelope slots per (sender,
// receiver) pair (0 = the paper's single slot): more slots buy pipelining
// of small-message streams at the cost of receiver memory (the trade §4.1
// discusses).
func build(s registry.Spec, impl string) (*mpi.World, error) {
	costs := meiko.DefaultCosts()
	if s.Costs != nil {
		c, ok := s.Costs.(*meiko.Costs)
		if !ok {
			return nil, fmt.Errorf("meiko: spec costs are %T, want *meiko.Costs", s.Costs)
		}
		costs = *c
	}
	n := s.Ranks
	sched := sim.NewKernel(s.Seed+1, s.Lanes, n, sim.Duration(costs.WireLatency), 500_000_000)
	m := meiko.NewMachine(sched, n, costs)
	eager := s.Eager
	if eager == 0 {
		eager = DefaultEager
	}

	eps := make([]core.Endpoint, n)
	if impl == "lowlatency" {
		trs := make([]*lowlatTransport, n)
		for i := 0; i < n; i++ {
			eng := core.NewEngine(m.Nodes[i].S, i, n, lowlatEngineCosts())
			trs[i] = newLowlatTransport(m, m.Nodes[i], eng, eager, s.EnvelopeSlots, trs)
			eng.SetTransport(trs[i])
			eps[i] = &LowLatEndpoint{Engine: eng, tr: trs[i]}
			m.Nodes[i].Ledger = &eng.Acct().Ledger
		}
	} else {
		for i := 0; i < n; i++ {
			eps[i] = newMPICHEndpoint(m, i, n)
			m.Nodes[i].Ledger = &eps[i].Acct().Ledger
		}
	}

	w := mpi.NewWorld(sched, eps)
	if impl == "lowlatency" {
		// Failure detection on the CS/2: a missed envelope-slot heartbeat
		// horizon, a handful of network round trips. MPICH keeps the zero
		// default — its tport endpoints cannot fail requests per peer, and
		// ScheduleKills rejects them with a typed error.
		w.FTDetect = 20 * time.Microsecond
	} else {
		// MPICH broadcasts over a binomial point-to-point tree; the
		// low-latency implementation auto-selects, which on the whole world
		// resolves to the hardware broadcast.
		w.Tune = mpi.Tuning{"bcast": "binomial"}
	}
	return w, nil
}

// lowlatEngineCosts are the SPARC-side engine charges of the low-latency
// implementation, calibrated (with the transport costs) to the paper's
// 104 µs 1-byte round trip.
func lowlatEngineCosts() core.EngineCosts {
	return core.EngineCosts{
		Match:        15 * time.Microsecond,
		CopyBase:     1 * time.Microsecond,
		CopyPerByte:  100 * time.Nanosecond,
		SendOverhead: 12 * time.Microsecond,
		RecvOverhead: 9 * time.Microsecond,
	}
}
