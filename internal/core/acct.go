package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/sim"
)

// Cost-accounting labels: the string view's names for sim's first nine
// categories, in order — Table 1's breakdown, from counters, not subtraction.
const (
	CostWire     = "wire"     // serialization + propagation on the network
	CostSyscall  = "syscall"  // kernel boundary crossings (read/write)
	CostKernel   = "kernel"   // in-kernel protocol and driver processing
	CostCopy     = "copy"     // memory copies (bounce buffer, pack/unpack)
	CostMatch    = "match"    // send/receive matching
	CostProtocol = "protocol" // envelope construction, header bytes, credits
	CostSync     = "sync"     // SPARC <-> Elan (or proc <-> NIC) synchronization
	CostOverhead = "overhead" // per-call library bookkeeping
	CostCompute  = "compute"  // application computation (apps only)
)

// catNames names the categories in the view; Parked, not a cost, has none.
var catNames = [sim.NumCats]string{CostWire, CostSyscall, CostKernel, CostCopy, CostMatch,
	CostProtocol, CostSync, CostOverhead, CostCompute, "read-type", "read-env", "read-data", ""}

// Ctr is a registered event counter: an index into every Acct's counts.
type Ctr uint8

const maxCtrs = 80 // bounds the registry, and with it every rank's ledger

var ctrNames []string // the registry, indexed by Ctr

// Counter registers name and returns its index (a name's first). Call it only
// during package initialization: the registry is read without locks once the
// program runs. Names ending in "-max" are gauges (see Raise and Merge).
func Counter(name string) Ctr {
	if c := slices.Index(ctrNames, name); c >= 0 {
		return Ctr(c)
	}
	if len(ctrNames) == maxCtrs {
		panic("core: counter registry full at " + name)
	}
	ctrNames = append(ctrNames, name)
	return Ctr(len(ctrNames) - 1)
}

// The counters core books.
var (
	ctrSend, ctrRecv, ctrReqStale            = Counter("send"), Counter("recv"), Counter("req-stale")
	ctrPostedMax, ctrUnexpectedMax           = Counter("match.posted-max"), Counter("match.unexpected-max")
	ctrPoolHit, ctrPoolMiss, ctrPoolRecycled = Counter(PoolHit), Counter(PoolMiss), Counter(PoolRecycled)
	ctrFlowQueued, ctrFlowGranted            = Counter("flow-queued"), Counter("flow-granted")
	ctrPeerDown, ctrRevoke                   = Counter("ft.peerdown"), Counter("ft.revoke")
	ctrRMAPut, ctrRMAFence                   = Counter("rma.put"), Counter("rma.fence")
)

// Acct is one rank's ledger, fixed arrays written only on the rank's lane:
// time by category in the embedded sim.Ledger (the rank's proc, its media
// and the kernel book there) and registered counters by index. Time and
// Count are the string view, nil on a rank's books (see View).
type Acct struct {
	sim.Ledger
	counts [maxCtrs]int64
	Time   map[string]sim.Duration
	Count  map[string]int64
}

// NewAcct returns an empty account.
func NewAcct() *Acct { return &Acct{} }

// Spend is p.Spend for d > 0 (a rank's proc books into its Acct).
func (a *Acct) Spend(p *sim.Proc, c sim.Cat, d sim.Duration) {
	if d > 0 {
		p.Spend(c, d)
	}
}

// Add bumps counter c by n.
func (a *Acct) Add(c Ctr, n int64) {
	if a != nil {
		a.counts[c] += n
	}
}

// Raise lifts gauge c to v when v exceeds its current value.
func (a *Acct) Raise(c Ctr, v int64) {
	if a != nil && v > a.counts[c] {
		a.counts[c] = v
	}
}

// Book records d > 0 under label beside the clock, advancing no proc.
func (a *Acct) Book(label string, d sim.Duration) {
	if a != nil && d > 0 {
		a.Record(sim.Cat(index(catNames[:], label)), d)
	}
}

// Incr is Add by registered name.
func (a *Acct) Incr(name string, n int64) { a.Add(Ctr(index(ctrNames, name)), n) }

// index finds name in a registry; an unknown name is a bug, never an entry.
func index(names []string, name string) int {
	if i := slices.Index(names, name); i >= 0 && name != "" {
		return i
	}
	panic("core: nothing registered as " + name)
}

// Merge adds other's books into a; "-max" gauges keep the larger value.
func (a *Acct) Merge(other *Acct) {
	if other == nil {
		return
	}
	for c := range a.Spent {
		a.Spent[c] += other.Spent[c]
		a.Booked[c] += other.Booked[c]
	}
	for c, name := range ctrNames {
		if strings.HasSuffix(name, "-max") {
			a.counts[c] = max(a.counts[c], other.counts[c])
		} else {
			a.counts[c] += other.counts[c]
		}
	}
}

// View returns a copy of a whose Time and Count name every non-zero category
// (its time on and beside the clock, summed) and counter.
func (a *Acct) View() *Acct {
	v := *a
	v.Time, v.Count = map[string]sim.Duration{}, map[string]int64{}
	for c, name := range catNames {
		if d := a.Spent[c] + a.Booked[c]; d != 0 && name != "" {
			v.Time[name] = d
		}
	}
	for c, name := range ctrNames {
		if n := a.counts[c]; n != 0 {
			v.Count[name] = n
		}
	}
	return &v
}

// String renders the view's time sorted by label, microseconds.
func (a *Acct) String() string {
	t := a.View().Time
	var b strings.Builder
	for _, k := range slices.Sorted(maps.Keys(t)) {
		fmt.Fprintf(&b, "%-10s %10.1f us\n", k, float64(t[k])/1e3)
	}
	return b.String()
}
