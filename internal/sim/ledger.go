package sim

// Cat indexes a Ledger's arrays: Table 1's nine components (core.Acct names
// them), the socket transport's Read spans (they overlap those, so are only
// booked beside the clock) and Parked, time a proc spent blocked.
type Cat uint8

const (
	Wire     Cat = iota // serialization + propagation on the network
	Syscall             // kernel boundary crossings (read/write)
	Kernel              // in-kernel protocol and driver processing
	Copy                // memory copies (bounce buffer, pack/unpack)
	Match               // send/receive matching
	Protocol            // envelope construction, header bytes, credits
	Sync                // SPARC <-> Elan (or proc <-> NIC) synchronization
	Overhead            // per-call library bookkeeping
	Compute             // application computation (apps only)
	ReadType            // the 1-byte message-type read
	ReadEnv             // the credit + envelope read
	ReadData            // payload reads
	Parked              // blocked in Cond.Wait, or idling in a poll loop
	NumCats
)

// Ledger is one rank's simulated-time book, written only on its lane. Spent
// is time the rank's clock advanced through (at the proc's end, its elapsed
// time); Booked is time beside it: device timelines and the Read spans.
type Ledger struct {
	Spent, Booked [NumCats]Duration
}

// Record books d under c beside the clock. A nil ledger records nothing.
func (l *Ledger) Record(c Cat, d Duration) {
	if l != nil {
		l.Booked[c] += d
	}
}

// Spend is Advance booked under c in p's ledger, when p has one.
func (p *Proc) Spend(c Cat, d Duration) {
	p.Advance(d)
	if p.Ledger != nil { // not l := p.Ledger: that keeps Acct.Spend from inlining
		p.Ledger.Spent[c] += d
	}
}
