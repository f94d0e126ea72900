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
	"time"

	"repro/internal/core"
	"repro/internal/meiko"
	"repro/internal/sim"
	"repro/mpi"
)

// Impl selects the MPI implementation.
type Impl int

const (
	// LowLatency is the paper's SPARC-matching implementation.
	LowLatency Impl = iota
	// MPICH is the tport-based baseline with Elan matching.
	MPICH
)

func (i Impl) String() string {
	if i == LowLatency {
		return "lowlatency"
	}
	return "mpich"
}

// Config describes a Meiko job.
type Config struct {
	Nodes int
	Impl  Impl
	// Lanes > 1 builds the world on the sharded kernel: nodes block-mapped
	// onto that many lanes, with the wire latency — or the fat-tree hop
	// latency, half of it, when FatTree is set — as the lookahead bound.
	Lanes int
	// Eager is the eager/rendezvous crossover in bytes; 0 means the
	// paper's measured 180 (Figure 1). Only the low-latency
	// implementation uses it.
	Eager int
	// Costs overrides the hardware cost model; nil means DefaultCosts.
	Costs *meiko.Costs
	// FatTree routes unicast traffic through the staged fat-tree
	// congestion model instead of the flat-latency wire.
	FatTree bool
	// EnvelopeSlots is the number of preallocated envelope slots per
	// (sender, receiver) pair; 0 means the paper's single slot. More slots
	// buy pipelining of small-message streams at the cost of receiver
	// memory (the trade §4.1 discusses).
	EnvelopeSlots int
	Seed          int64
}

// DefaultEager is the paper's measured crossover point (Figure 1).
const DefaultEager = 180

// NewWorld builds the machine and per-rank endpoints for cfg.
func NewWorld(cfg Config) (*mpi.World, *meiko.Machine) {
	costs := meiko.DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	// The lookahead bound is the minimum cross-lane stage latency: the flat
	// wire hop, or the per-switch hop (WireLatency/2) once the fat tree
	// stages the route.
	lookahead := sim.Duration(costs.WireLatency)
	if cfg.FatTree {
		lookahead /= 2
	}
	s := sim.NewKernel(cfg.Seed+1, cfg.Lanes, cfg.Nodes, lookahead, 500_000_000)
	m := meiko.NewMachine(s, cfg.Nodes, costs)
	if cfg.FatTree {
		m.Tree = m.NewFatTree()
	}
	eager := cfg.Eager
	if eager == 0 {
		eager = DefaultEager
	}

	eps := make([]core.Endpoint, cfg.Nodes)
	switch cfg.Impl {
	case LowLatency:
		trs := make([]*lowlatTransport, cfg.Nodes)
		for i := 0; i < cfg.Nodes; i++ {
			eng := core.NewEngine(m.Nodes[i].S, i, cfg.Nodes, lowlatEngineCosts(), nil)
			trs[i] = newLowlatTransport(m, m.Nodes[i], eng, eager, cfg.EnvelopeSlots, trs)
			eng.SetTransport(trs[i])
			eps[i] = &LowLatEndpoint{Engine: eng, tr: trs[i]}
		}
	case MPICH:
		for i := 0; i < cfg.Nodes; i++ {
			eps[i] = newMPICHEndpoint(m, i, cfg.Nodes)
		}
	}

	w := mpi.NewWorld(s, eps)
	if cfg.Impl == LowLatency {
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
	return w, m
}

// Run executes body as an n-rank MPI job on the configured machine.
func Run(cfg Config, body func(c *mpi.Comm) error) (*mpi.Report, error) {
	w, _ := NewWorld(cfg)
	return mpi.Launch(w, body)
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
