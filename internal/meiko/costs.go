// Package meiko models the Meiko CS/2: per-node 40 MHz SPARC processors
// paired with 10 MHz Elan communication co-processors, a network with
// hardware broadcast (its fat tree modelled as a flat-latency wire), secure
// user-level remote transactions, and a DMA engine — the substrate of the
// paper's sections 4 and the MPICH/tport baseline. Costs are calibrated to
// the paper's anchors (52 µs tport round trip, 39 MB/s DMA bandwidth); see
// DESIGN.md §6.
package meiko

import (
	"time"

	"repro/internal/sim"
)

// Costs parameterizes the CS/2 model. All values are virtual time.
type Costs struct {
	// SPARC-side costs (charged to the calling process).
	TxnIssue    sim.Duration // issue a remote transaction from user space
	DMAIssue    sim.Duration // hand a DMA descriptor to the Elan
	ElanSync    sim.Duration // observe an Elan-set event from the SPARC
	CopyPerByte sim.Duration // SPARC memcpy bandwidth (bounce-buffer copies)
	CopyBase    sim.Duration

	// Elan-side occupancy (the 10 MHz co-processor is a serial resource).
	ElanTxnHandle   sim.Duration // process an incoming transaction
	ElanDMASetup    sim.Duration // start a DMA transfer
	ElanDMARecv     sim.Duration // land an incoming DMA
	ElanTportSend   sim.Duration // process a tport send descriptor
	ElanTportMatch  sim.Duration // match an arriving tport message
	ElanCopyPerByte sim.Duration // Elan-mediated buffer copy (tport unexpected)

	// Network.
	WireLatency  sim.Duration // switch traversal + propagation per packet
	TxnPerByte   sim.Duration // transaction payload serialization
	DMAPerByte   sim.Duration // DMA serialization (39 MB/s peak)
	BcastPerNode sim.Duration // hardware broadcast per-destination skew

	// tport widget SPARC costs.
	TportIssue sim.Duration // SPARC cost to issue a tport send/recv
}

// DefaultCosts reproduces the paper's measured anchors:
//
//	tport 1-byte round trip ≈ 52 µs   (Figure 2)
//	DMA peak bandwidth      ≈ 39 MB/s (Figure 3)
//	eager/rendezvous crossover at ≈ 180 bytes (Figure 1)
func DefaultCosts() Costs {
	return Costs{
		TxnIssue:    5 * time.Microsecond,
		DMAIssue:    4 * time.Microsecond,
		ElanSync:    4 * time.Microsecond,
		CopyPerByte: 100 * time.Nanosecond, // ~10 MB/s SPARC memcpy
		CopyBase:    1 * time.Microsecond,

		ElanTxnHandle:   4 * time.Microsecond,
		ElanDMASetup:    5 * time.Microsecond,
		ElanDMARecv:     2 * time.Microsecond,
		ElanTportSend:   5 * time.Microsecond,
		ElanTportMatch:  5 * time.Microsecond,
		ElanCopyPerByte: 120 * time.Nanosecond,

		WireLatency:  3 * time.Microsecond,
		TxnPerByte:   40 * time.Nanosecond, // transactions move data slower than DMA
		DMAPerByte:   25 * time.Nanosecond, // 40 MB/s wire; ~39 MB/s delivered
		BcastPerNode: 300 * time.Nanosecond,

		TportIssue: 4 * time.Microsecond,
	}
}
