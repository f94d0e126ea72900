package core

import (
	"encoding/binary"
	"math"

	"repro/internal/sim"
)

// RemoteMemory is the one-sided capability a Transport may implement
// alongside matched delivery: direct placement into a registered window
// region on the target rank, bypassing the matching engine entirely. The
// Meiko maps it to Elan remote transactions and DMA, the store-based
// fabric (mem, cluster/shm) to direct stores across the medium; socket
// transports, which have no remote-write primitive, leave it unimplemented
// and the mpi layer falls back to a deferred-at-fence emulation over
// matched sends.
//
// The seam is two verbs, as on RDMA hardware: a put is a write that
// replaces (RMAReplace), an accumulate a write that combines, and both
// take the same path to the target.
//
// Both methods run in the origin proc's context. done MUST fire exactly
// once, in the origin rank's scheduler (lane) context, and only after the
// operation is remotely complete — the bytes applied at the target (write)
// or landed in buf (read). The engine's fence machinery counts on that
// ordering: outstanding-operation draining plus a barrier is what makes a
// fence epoch.
//
// Implementations locate the target region via Engine.Win on the target
// rank's engine; origins validate offsets before issuing, so a
// transport-side out-of-range apply is an invariant violation (panic),
// not a user error.
type RemoteMemory interface {
	// RMAWrite combines data into target dst's window win at byte offset
	// off with op; RMAReplace makes it a plain put.
	RMAWrite(p *sim.Proc, dst, win, off int, data []byte, op RMAOp, done func())
	// RMARead reads len(buf) bytes from dst's window win at off into buf.
	RMARead(p *sim.Proc, dst, win, off int, buf []byte, done func())
}

// RMAOp enumerates the accumulate operators applied element-wise at the
// target. Sum operators require the payload length to be a multiple of 8
// (int64/float64 little-endian elements); Replace and Xor are byte-wise.
// All operators are commutative, so concurrent same-epoch accumulates
// from different origins produce the same contents regardless of
// application order.
type RMAOp uint8

const (
	// RMAReplace overwrites the target bytes (MPI_REPLACE).
	RMAReplace RMAOp = iota
	// RMASumInt64 adds little-endian int64 elements (MPI_SUM).
	RMASumInt64
	// RMASumFloat64 adds little-endian float64 elements (MPI_SUM).
	RMASumFloat64
	// RMAXor xors bytes (MPI_BXOR).
	RMAXor
)

func (op RMAOp) String() string {
	switch op {
	case RMAReplace:
		return "replace"
	case RMASumInt64:
		return "sum-int64"
	case RMASumFloat64:
		return "sum-float64"
	case RMAXor:
		return "xor"
	default:
		return "unknown"
	}
}

// ValidLen reports whether op can apply to an n-byte payload (the sum
// operators consume whole 8-byte elements). The mpi layer uses it to
// validate emulated accumulates with the same rule the engine applies to
// native ones.
func (op RMAOp) ValidLen(n int) bool { return op.valid(n) }

// valid reports whether op can apply to an n-byte payload.
func (op RMAOp) valid(n int) bool {
	switch op {
	case RMASumInt64, RMASumFloat64:
		return n%8 == 0
	default:
		return true
	}
}

// apply combines src into dst element-wise. len(dst) == len(src).
func (op RMAOp) apply(dst, src []byte) {
	switch op {
	case RMAReplace:
		copy(dst, src)
	case RMASumInt64:
		for i := 0; i+8 <= len(src); i += 8 {
			v := int64(binary.LittleEndian.Uint64(dst[i:])) + int64(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], uint64(v))
		}
	case RMASumFloat64:
		for i := 0; i+8 <= len(src); i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:])) +
				math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(v))
		}
	case RMAXor:
		for i := range src {
			dst[i] ^= src[i]
		}
	}
}
