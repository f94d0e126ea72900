package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// Op classifies a recorded workload event. The trace keeps one completion
// event per operation the pattern cares about; the per-pattern SLO op
// (Pattern.SLO) is the one whose Dur feeds the latency percentiles.
type Op uint8

// Event classes. Zero is reserved so a zeroed byte never decodes as a
// valid op.
const (
	// OpExchange is a completed neighbor exchange (one Sendrecv leg).
	OpExchange Op = iota + 1
	// OpCollective is a completed collective (allreduce, alltoall, ...).
	OpCollective
	// OpStep is one completed pattern iteration (halo sweep, stencil
	// step, shuffle round, training step).
	OpStep
	// OpRequest is an RPC client reply completion; Dur spans from the
	// request's send, so it includes queueing delay at the server.
	OpRequest
	// OpServe is an RPC server-side request completion (recv through
	// reply issue).
	OpServe
)

// String names the op for divergence reports and summaries.
func (o Op) String() string {
	switch o {
	case OpExchange:
		return "exchange"
	case OpCollective:
		return "collective"
	case OpStep:
		return "step"
	case OpRequest:
		return "request"
	case OpServe:
		return "serve"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Event is one completed operation in a recorded workload. All times are
// virtual (simulated) nanoseconds, so a trace is bit-reproducible from
// (spec, seed) alone.
type Event struct {
	// T is the virtual completion time in nanoseconds.
	T int64
	// Rank is the completing rank.
	Rank int32
	// Op classifies the event.
	Op Op
	// Peer is the counterpart rank (-1 for collectives and steps).
	Peer int32
	// Tag is the message tag or iteration index.
	Tag int32
	// Bytes is the payload size the event accounts for.
	Bytes uint32
	// Dur is the event's latency in nanoseconds (completion minus the
	// op-defined start instant).
	Dur int64
}

// String renders the event with rank/time/op context for divergence
// reports.
func (e Event) String() string {
	return fmt.Sprintf("t=%v rank=%d %s peer=%d tag=%d bytes=%d dur=%v",
		time.Duration(e.T), e.Rank, e.Op, e.Peer, e.Tag, e.Bytes, time.Duration(e.Dur))
}

// Trace is a recorded workload run: the configuration that produced it
// plus the canonical merged event stream (sorted by (T, Rank), per-rank
// order preserved).
type Trace struct {
	// Cfg is the recording configuration. Backend and Lanes are
	// provenance — replay may rebuild the world on a different kernel
	// to check cross-kernel determinism.
	Cfg Config
	// Events is the canonical merged event stream.
	Events []Event
}

// Binary trace format (DESIGN.md §12):
//
//	magic   "MPWT"            4 bytes
//	version uint16 LE          2 bytes (this package writes Version)
//	header  pattern, backend  (uvarint length + UTF-8 bytes each)
//	        ranks, lanes, steps, bytes uvarint
//	        seed varint; rate float64 LE bits; compute varint (ns)
//	count   uvarint            number of events
//	events  per event: dt uvarint (delta from previous T, ns), rank uvarint,
//	        op 1 byte, peer varint, tag varint, bytes uvarint, dur uvarint
//	crc     crc32(IEEE) LE over everything above, 4 bytes
const (
	traceMagic = "MPWT"
	// Version is the trace format version this build reads and writes.
	Version = 2
	// minEventBytes is the smallest encoding of one event (seven one-byte
	// fields): the bytes left after the header cap the declared event count
	// during decode, so a corrupt header cannot drive a huge allocation.
	minEventBytes = 7
	// maxString caps header string lengths during decode.
	maxString = 1 << 12
)

// FormatError reports a trace that this build cannot decode: bad magic,
// a format version other than Version, or corruption. Version is
// nonzero when the rejection is a version mismatch.
type FormatError struct {
	// Version is the on-disk format version when the error is an
	// unsupported-version rejection, zero otherwise.
	Version uint16
	// Msg describes the problem.
	Msg string
}

// Error implements error.
func (e *FormatError) Error() string { return "workload trace: " + e.Msg }

// Marshal encodes the trace into the compact binary format.
func (t *Trace) Marshal() []byte {
	buf := make([]byte, 0, 64+len(t.Events)*10)
	buf = append(buf, traceMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = appendStr(buf, t.Cfg.Pattern)
	buf = appendStr(buf, t.Cfg.Backend)
	buf = binary.AppendUvarint(buf, uint64(t.Cfg.Ranks))
	buf = binary.AppendUvarint(buf, uint64(t.Cfg.Lanes))
	buf = binary.AppendUvarint(buf, uint64(t.Cfg.Steps))
	buf = binary.AppendUvarint(buf, uint64(t.Cfg.Bytes))
	buf = binary.AppendVarint(buf, t.Cfg.Seed)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.Cfg.Rate))
	buf = binary.AppendVarint(buf, int64(t.Cfg.Compute))
	buf = binary.AppendUvarint(buf, uint64(len(t.Events)))
	prev := int64(0)
	for _, ev := range t.Events {
		buf = binary.AppendUvarint(buf, uint64(ev.T-prev))
		prev = ev.T
		buf = binary.AppendUvarint(buf, uint64(ev.Rank))
		buf = append(buf, byte(ev.Op))
		buf = binary.AppendVarint(buf, int64(ev.Peer))
		buf = binary.AppendVarint(buf, int64(ev.Tag))
		buf = binary.AppendUvarint(buf, uint64(ev.Bytes))
		buf = binary.AppendUvarint(buf, uint64(ev.Dur))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Unmarshal decodes a binary trace. It returns a *FormatError for bad
// magic, an unsupported version, or corruption (CRC mismatch, truncation,
// trailing bytes).
func Unmarshal(data []byte) (*Trace, error) {
	if len(data) < len(traceMagic)+2+4 {
		return nil, &FormatError{Msg: "truncated (shorter than the fixed header)"}
	}
	if !bytes.Equal(data[:4], []byte(traceMagic)) {
		return nil, &FormatError{Msg: "bad magic (not a workload trace)"}
	}
	ver := binary.LittleEndian.Uint16(data[4:6])
	if ver != Version {
		return nil, &FormatError{Version: ver, Msg: fmt.Sprintf("format v%d; this build reads v%d", ver, Version)}
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, &FormatError{Msg: "corrupt (crc mismatch)"}
	}
	r := &traceReader{b: body, off: 6}
	tr := &Trace{}
	tr.Cfg.Pattern = r.str()
	tr.Cfg.Backend = r.str()
	tr.Cfg.Ranks = int(r.uvarint())
	tr.Cfg.Lanes = int(r.uvarint())
	tr.Cfg.Steps = int(r.uvarint())
	tr.Cfg.Bytes = int(r.uvarint())
	tr.Cfg.Seed = r.varint()
	tr.Cfg.Rate = math.Float64frombits(r.u64())
	tr.Cfg.Compute = time.Duration(r.varint())
	count := r.uvarint()
	if left := len(body) - r.off; r.err == nil && count > uint64(left/minEventBytes) {
		r.fail("event count %d exceeds what the %d bytes left can hold", count, left)
	}
	if r.err == nil {
		tr.Events = make([]Event, 0, count)
		prev := int64(0)
		for i := uint64(0); i < count && r.err == nil; i++ {
			var ev Event
			ev.T = prev + int64(r.uvarint())
			prev = ev.T
			ev.Rank = int32(r.uvarint())
			ev.Op = Op(r.byte())
			ev.Peer = int32(r.varint())
			ev.Tag = int32(r.varint())
			ev.Bytes = uint32(r.uvarint())
			ev.Dur = int64(r.uvarint())
			tr.Events = append(tr.Events, ev)
		}
	}
	if r.err == nil && r.off != len(body) {
		r.fail("%d trailing bytes after the event stream", len(body)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return tr, nil
}

// traceReader is a sticky-error cursor over the trace body.
type traceReader struct {
	b   []byte
	off int
	err *FormatError
}

func (r *traceReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &FormatError{Msg: fmt.Sprintf(format, args...)}
	}
}

func (r *traceReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *traceReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *traceReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *traceReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *traceReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxString {
		r.fail("string length %d exceeds the %d cap", n, maxString)
		return ""
	}
	if r.off+int(n) > len(r.b) {
		r.fail("truncated string at offset %d", r.off)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Divergence reports the first event where a replay departed from the
// recording, with rank/time/op context. It implements error so Replay can
// return it directly.
type Divergence struct {
	// Index is the position in the canonical merged stream.
	Index int
	// Rank, T, and Op identify the first divergent event (taken from the
	// recorded side when present, else from the replayed side).
	Rank int
	T    time.Duration
	Op   Op
	// Want is the recorded event (nil when the replay produced extra
	// events past the end of the recording).
	Want *Event
	// Got is the replayed event (nil when the replay ended early).
	Got *Event
}

// Error implements error.
func (d *Divergence) Error() string {
	switch {
	case d.Want == nil:
		return fmt.Sprintf("replay diverged at event %d: recording ended, replay produced extra [%v]", d.Index, *d.Got)
	case d.Got == nil:
		return fmt.Sprintf("replay diverged at event %d: replay ended early, recording has [%v]", d.Index, *d.Want)
	}
	return fmt.Sprintf("replay diverged at event %d: recorded [%v], replayed [%v]", d.Index, *d.Want, *d.Got)
}

// Diff compares a recording against a replay and returns the first
// divergent event, or nil when the streams are identical. Comparison is
// positional over the canonical merged order, so it catches timing shifts
// as well as reordered, missing, or extra operations.
func Diff(want, got *Trace) *Divergence {
	n := len(want.Events)
	if len(got.Events) < n {
		n = len(got.Events)
	}
	for i := 0; i < n; i++ {
		if want.Events[i] != got.Events[i] {
			w, g := want.Events[i], got.Events[i]
			return &Divergence{Index: i, Rank: int(w.Rank), T: time.Duration(w.T), Op: w.Op, Want: &w, Got: &g}
		}
	}
	if len(want.Events) > n {
		w := want.Events[n]
		return &Divergence{Index: n, Rank: int(w.Rank), T: time.Duration(w.T), Op: w.Op, Want: &w}
	}
	if len(got.Events) > n {
		g := got.Events[n]
		return &Divergence{Index: n, Rank: int(g.Rank), T: time.Duration(g.T), Op: g.Op, Got: &g}
	}
	return nil
}
