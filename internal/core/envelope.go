// Package core implements the paper's primary contribution: the
// transport-independent low-latency MPI engine.
//
// The engine owns message semantics — tagged matching with wildcards,
// non-overtaking delivery order, send modes, request state machines, the
// eager/rendezvous protocol decision, and per-category cost accounting.
// Everything that moves bytes or charges platform-specific time lives behind
// the Transport interface (one implementation per platform: Meiko
// DMA/transactions, and TCP/UDP sockets on the ATM/Ethernet cluster),
// mirroring the paper's structure: the cluster port re-implements the
// primitives the Meiko implementation assumes (sending an envelope, sending
// an envelope with piggybacked data, and setting remote events / sending DMA
// data) on top of stream sockets.
package core

import "fmt"

// Wildcard values for receive matching, mirroring MPI_ANY_SOURCE and
// MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// Mode distinguishes the MPI send modes. The mode travels in the envelope:
// synchronous sends require the receiver to acknowledge the match, and
// ready sends are erroneous if no receive is posted at arrival.
type Mode uint8

const (
	ModeStandard Mode = iota
	ModeSync
	ModeReady
	ModeBuffered
)

func (m Mode) String() string {
	switch m {
	case ModeStandard:
		return "standard"
	case ModeSync:
		return "sync"
	case ModeReady:
		return "ready"
	case ModeBuffered:
		return "buffered"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Envelope is the per-message control information matched at the receiver.
// On the cluster platform it is the 20-byte envelope of the paper's 25-byte
// protocol header; on the Meiko it travels in the remote transaction that
// deposits the message into the receiver's per-sender slot.
type Envelope struct {
	Source  int    // sending rank (in the communicator)
	Dest    int    // receiving rank
	Tag     int    // user tag
	Context int    // communicator context id
	Count   int    // payload length in bytes
	Seq     uint64 // per (source, context) sequence, for diagnostics
	Mode    Mode
	SendID  int64 // sender-side request handle, echoed in CTS/acks
}

// EnvelopeWireBytes is the size of the envelope on the cluster wire.
// Together with the 1-byte message type and the 4-byte credit field it
// forms the 25 bytes of protocol information measured in Table 1.
const EnvelopeWireBytes = 20

// HeaderWireBytes is the full cluster protocol header: 1 byte of message
// type, 4 bytes of returned credit, and the 20-byte envelope.
const HeaderWireBytes = 1 + 4 + EnvelopeWireBytes

// Status describes a completed receive, like MPI_Status.
type Status struct {
	Source int
	Tag    int
	Count  int // bytes actually delivered
}

// Error codes, a subset of the MPI error classes.
type ErrCode int

const (
	ErrNone ErrCode = iota
	ErrTruncate
	ErrReady // ready-mode send arrived before a matching receive was posted
	ErrBuffer
	ErrInternal
	// ErrLinkDown is a dead transport link (e.g. reliable-UDP retransmission
	// exhaustion): the rank cannot communicate, and every pending and future
	// operation fails with it.
	ErrLinkDown
	// ErrPeerDown is a dead peer process: only operations matched to (or
	// inevitably matching) that rank fail, the rest of the world survives.
	// The message names the culprit rank.
	ErrPeerDown
	// ErrRevoked is a communicator poisoned by Comm.Revoke: every pending
	// and future operation on its contexts fails so survivors fall through
	// to the recovery path instead of hanging.
	ErrRevoked
)

// Error is an MPI-level error carrying one of the MPI error classes.
type Error struct {
	Code ErrCode
	Msg  string
}

func (e *Error) Error() string { return "mpi: " + e.Msg }

// Truncated is the ErrTruncate of an n-byte message received into a
// size-byte buffer, the same on every backend.
func Truncated(n, size int) *Error {
	return Errorf(ErrTruncate, "message of %d bytes truncated to %d-byte receive buffer", n, size)
}

// Errorf builds an *Error with the given class.
func Errorf(code ErrCode, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}
