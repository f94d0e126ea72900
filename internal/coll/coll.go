// Package coll is the collective-algorithm layer: a per-collective
// registry of interchangeable algorithm implementations behind one Run
// entry point, plus an auto-selector that picks by message size,
// communicator size, and platform capability — the paper's
// eager/rendezvous crossover idea lifted to the collective level (the
// Meiko picks its hardware broadcast, the ATM cluster a point-to-point
// tree, and both switch algorithms as payloads grow).
//
// The mpi package routes every collective through Run; entrypoints force
// specific algorithms with a Tuning parsed by ParseTuning (the registry
// validates names, like platform/registry does for backends), and
// `repro -suite collectives` measures every registered algorithm to
// derive the empirical crossover points the selector's thresholds encode.
package coll

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Comm is the narrow communicator view algorithms drive: rank-addressed
// point-to-point traffic on the collective context, plus the platform
// capability probes. The mpi package supplies the one real implementation.
type Comm interface {
	Rank() int
	Size() int

	Send(dst, tag int, data []byte) error
	Recv(src, tag int, buf []byte) error
	// Sendrecv sends out to rank to and receives from rank from into in,
	// both under tag: the deadlock-free pairwise exchange every symmetric
	// algorithm uses. One that fails leaves no receive posted.
	Sendrecv(to int, out []byte, from int, in []byte, tag int) error
	Isend(dst, tag int, data []byte) (Req, error)
	Wait(r Req) error

	// HasHW reports whether the platform's hardware broadcast can reach
	// exactly this communicator (the device implements it and the
	// communicator spans the world).
	HasHW() bool
	// HWBcast invokes the hardware broadcast; only legal when HasHW.
	HWBcast(root int, buf []byte) error

	// Borrow and Return lend the calling process's Scratch. An algorithm
	// returns a buffer once its last operation on it has returned, after
	// an error too: every receive it posts is a Recv or a Sendrecv, so none
	// outlives the call that posted it.
	Borrow(n int) []byte
	Return(b []byte)

	// Bookkeeping hooks for Run's per-algorithm accounting.
	Acct() *core.Acct
	TraceLog() *trace.Log
	WorldRank() int
	Now() sim.Time
}

// Req is an in-flight nonblocking operation, completed by Comm.Wait.
type Req interface{}

// Scratch is one process's LIFO of collective scratch buffers. Collectives
// nest (an allreduce runs a bcast) but never interleave, so buffers come
// back in the reverse order they went out and the next call of the same
// shape pops each buffer it used last time. The stack is never deeper than
// the deepest nesting, and a buffer too short for a request is dropped for
// a bigger one.
type Scratch struct {
	top  []byte   // the buffer returned last; nil when the stack is empty
	rest [][]byte // the ones returned before it, most recent last
}

// Borrow returns n bytes with unspecified contents.
func (s *Scratch) Borrow(n int) []byte {
	b := s.top
	s.top = nil
	if k := len(s.rest); k > 0 {
		s.top, s.rest = s.rest[k-1], s.rest[:k-1]
	}
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

// Return takes back a buffer Borrow handed out.
func (s *Scratch) Return(b []byte) {
	if s.top != nil {
		s.rest = append(s.rest, s.top)
	}
	s.top = b[:cap(b)]
}

// giveBack returns b, if any, to c's scratch and passes err through.
func giveBack(c Comm, b []byte, err error) error {
	if b != nil {
		c.Return(b)
	}
	return err
}

// Collective-context tags, one per operation type for readable traces
// (correctness comes from the dedicated collective context).
const (
	tagBcast = iota + 1
	tagBarrier
	tagGather
	tagScatter
	tagReduce
	tagScan
	tagAlltoall
)

// Args carries one collective call's operands; each operation reads the
// fields it defines (bcast: Root+Buf; reductions: Op+Send+Recv; vector
// variants: the count/displacement slices).
type Args struct {
	Root int
	Buf  []byte
	Send []byte
	Recv []byte
	Op   func(dst, src []byte)
	// Elem is the reduction element size in bytes; splitting algorithms
	// (reduce-scatter+allgather) may partition vectors only at Elem-byte
	// boundaries, so Elem == 0 rules them out.
	Elem int
	// Counts holds per-rank byte counts of the gather/scatter family; nil
	// means every rank moves the same number of bytes.
	Counts []int
	// Alltoallv geometry.
	SCounts, SDispls, RCounts, RDispls []int
	// Tune propagates forced algorithm choices into composite algorithms
	// (an allgather built from gather+bcast resolves its inner bcast
	// through the same tuning). Run fills it before invoking.
	Tune Tuning
}

// Hint describes one call site for auto-selection.
type Hint struct {
	Bytes int  // payload bytes (per rank) the call moves
	Elem  int  // reduction element size; 0 = opaque buffer
	Ranks int  // communicator size
	HW    bool // hardware broadcast reaches this communicator
}

// Alg is one registered algorithm for one collective operation.
type Alg struct {
	Name string
	// NeedsHW marks algorithms that require the platform's hardware
	// broadcast; forcing one on a backend without it is an error.
	NeedsHW bool
	// Pow2Only marks algorithms defined only for power-of-two
	// communicator sizes (recursive doubling and halving).
	Pow2Only bool
	// NeedsElem marks algorithms that split reduction vectors and so
	// require a declared element size.
	NeedsElem bool
	// Rounds models the message-round count for the books.
	Rounds func(h Hint) int
	Run    func(c Comm, a Args) error

	// The three counters Run books per call, registered once by register.
	callsCtr, bytesCtr, roundsCtr core.Ctr
}

// ok reports whether the algorithm is applicable under h.
func (a *Alg) ok(h Hint) bool {
	if a.NeedsHW && !h.HW {
		return false
	}
	if a.Pow2Only && h.Ranks&(h.Ranks-1) != 0 {
		return false
	}
	if a.NeedsElem && (h.Elem <= 0 || h.Bytes/h.Elem < h.Ranks) {
		return false
	}
	return true
}

// registries maps operation name -> algorithms in registration order; the
// first entry that is applicable everywhere is the fallback default.
var registries = map[string][]*Alg{}

// register adds an algorithm for op (wiring bug to duplicate a name).
func register(op string, a *Alg) {
	for _, have := range registries[op] {
		if have.Name == a.Name {
			panic(fmt.Sprintf("coll: duplicate algorithm %s/%s", op, a.Name))
		}
	}
	a.callsCtr, a.bytesCtr, a.roundsCtr = core.Counter("coll."+op+"."+a.Name), core.Counter("coll."+op+".bytes"), core.Counter("coll."+op+".rounds")
	registries[op] = append(registries[op], a)
}

// Ops reports every collective operation with registered algorithms.
func Ops() []string {
	out := make([]string, 0, len(registries))
	for op := range registries {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// Names reports the algorithms registered for op, in registration order.
func Names(op string) []string {
	var out []string
	for _, a := range registries[op] {
		out = append(out, a.Name)
	}
	return out
}

// Lookup reports the algorithm registered for op under name.
func Lookup(op, name string) (*Alg, bool) {
	for _, a := range registries[op] {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Auto-selection thresholds: the size crossovers the selector encodes,
// chosen from the cost model's structure and checked empirically by
// `repro -suite collectives` (which derives the measured crossover points).
const (
	// HWBcastMax is the largest broadcast the hardware network wins: above
	// it the slot-to-user copy makes the pipelined chain (whose rendezvous
	// payloads land directly in user buffers) cheaper.
	HWBcastMax = 32 << 10
	// PipelineBytes is the point-to-point broadcast crossover from a
	// binomial tree (log P full-payload times) to the segmented pipeline.
	PipelineBytes = 32 << 10
	// RdblBytes is the allreduce crossover from recursive doubling
	// (latency-optimal, log P rounds of full payload) to
	// reduce-scatter+allgather (bandwidth-optimal).
	RdblBytes = 4 << 10
	// RingBytes is the allgather crossover from gather+bcast (root
	// bottleneck, fine for small payloads) to the ring.
	RingBytes = 4 << 10
)

// Select picks the algorithm for op under h: by payload size, by
// communicator size, and by platform capability. It never returns nil for
// a registered op.
func Select(op string, h Hint) *Alg {
	algs := registries[op]
	if len(algs) == 0 {
		return nil
	}
	pick := func(name string) *Alg {
		if a, okName := Lookup(op, name); okName && a.ok(h) {
			return a
		}
		return nil
	}
	if h.Ranks > 1 {
		var want *Alg
		switch op {
		case "bcast":
			switch {
			case h.HW && h.Bytes <= HWBcastMax:
				want = pick("hardware")
			case h.Bytes > PipelineBytes && h.Ranks >= 3:
				want = pick("pipelined")
			default:
				want = pick("binomial")
			}
		case "barrier":
			if h.HW {
				want = pick("tree")
			}
		case "allreduce":
			if h.Bytes > RdblBytes {
				if want = pick("rsag"); want == nil {
					want = pick("rdbl")
				}
			}
		case "allgather":
			if h.Bytes > RingBytes {
				want = pick("ring")
			}
		case "alltoall":
			if h.Ranks >= 4 {
				want = pick("pairwise")
			}
		}
		if want != nil {
			return want
		}
	}
	// Fallback: the first registered algorithm applicable under h (every
	// op registers a restriction-free algorithm first).
	for _, a := range algs {
		if a.ok(h) {
			return a
		}
	}
	return algs[0]
}

// Tuning forces specific algorithms per collective operation; missing
// entries auto-select.
type Tuning map[string]string

// ParseTuning parses "op=alg,op=alg" (e.g. "bcast=binomial,allreduce=rsag")
// into a Tuning, validating both operation and algorithm names against the
// registry — a typo prints the listing instead of silently auto-selecting.
func ParseTuning(s string) (Tuning, error) {
	if s == "" {
		return nil, nil
	}
	t := Tuning{}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		i := strings.IndexByte(kv, '=')
		if i < 0 {
			return nil, fmt.Errorf("coll: bad tuning %q, want op=alg", kv)
		}
		op, alg := kv[:i], kv[i+1:]
		if _, ok := registries[op]; !ok {
			return nil, fmt.Errorf("coll: unknown collective %q (registered: %s)", op, strings.Join(Ops(), ", "))
		}
		if _, ok := Lookup(op, alg); !ok {
			return nil, fmt.Errorf("coll: unknown %s algorithm %q (registered: %s)", op, alg, strings.Join(Names(op), ", "))
		}
		t[op] = alg
	}
	return t, nil
}

// String renders the tuning in ParseTuning's format, sorted.
func (t Tuning) String() string {
	var parts []string
	for op, alg := range t {
		parts = append(parts, op+"="+alg)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Run resolves the algorithm for op — t[op] when forced, Select otherwise
// — books the choice into the rank's cost account (per-algorithm
// invocation, byte, and round counters), brackets it with trace events,
// and executes it.
func Run(c Comm, t Tuning, op string, bytes int, a Args) error {
	h := Hint{Bytes: bytes, Elem: a.Elem, Ranks: c.Size(), HW: c.HasHW()}
	var alg *Alg
	if name := t[op]; name != "" {
		forced, ok := Lookup(op, name)
		if !ok {
			return core.Errorf(core.ErrInternal, "no %s algorithm %q (registered: %s)", op, name, strings.Join(Names(op), ", "))
		}
		if !forced.ok(h) {
			return core.Errorf(core.ErrInternal, "%s algorithm %q not applicable (ranks=%d hw=%v elem=%d): needs hw=%v pow2=%v elem=%v",
				op, name, h.Ranks, h.HW, h.Elem, forced.NeedsHW, forced.Pow2Only, forced.NeedsElem)
		}
		alg = forced
	} else {
		alg = Select(op, h)
		if alg == nil {
			return core.Errorf(core.ErrInternal, "no algorithms registered for collective %q", op)
		}
	}
	a.Tune = t

	acct := c.Acct()
	acct.Add(alg.callsCtr, 1)
	acct.Add(alg.bytesCtr, int64(bytes))
	if alg.Rounds != nil {
		acct.Add(alg.roundsCtr, int64(alg.Rounds(h)))
	}
	tl := c.TraceLog()
	if tl != nil {
		tl.Add(trace.Event{T: c.Now(), Rank: c.WorldRank(), Kind: trace.CollectiveStart, Peer: -1, Bytes: bytes, Note: op + "/" + alg.Name})
	}
	err := alg.Run(c, a)
	if tl != nil && err == nil {
		tl.Add(trace.Event{T: c.Now(), Rank: c.WorldRank(), Kind: trace.CollectiveDone, Peer: -1, Bytes: bytes, Note: op + "/" + alg.Name})
	}
	return err
}

// log2Ceil reports ceil(log2(p)) (rounds of a binomial tree over p ranks).
func log2Ceil(p int) int {
	n := 0
	for m := 1; m < p; m <<= 1 {
		n++
	}
	return n
}
