package sim

import "fmt"

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

// Step is what a relay leaves to do after its code.
type Step uint8

const (
	Decline Step = iota // no charge: the proc carries on at this wake
	Last                // the charge, then the proc resumes at its wake
	More                // the charge, then the relay again at its wake
	Stay                // no charge, and the proc is back on its Cond (WaitThen)
)

// Relay is the code between two charges of a proc (see SpendThen), or what
// a proc does at each wake of a Cond wait (see WaitThen). It must not
// charge or park: Advance, Spend or SpendThen inside it panics, naming the
// proc and the charge. It reports the charge that follows it and the step
// after that charge; a relay that reports More is a chain, called again at
// the charge's wake.
type Relay interface{ Relay() (Cat, Duration, Step) }

// callRelay calls r with p marked as inside a relay, so that a charge there
// panics (see checkCharge) on every kernel alike.
func (p *Proc) callRelay(r Relay) (Cat, Duration, Step) {
	p.inRelay = true
	c, d, step := r.Relay()
	p.inRelay = false
	return c, d, step
}

// checkCharge starts every charge of p (Advance, SpendThen): one made
// inside a relay of p's panics. Run by the kernel, it would silently move
// the clock inside the relay, or park the scheduler itself.
func (p *Proc) checkCharge(d Duration) {
	if p.inRelay {
		panic(fmt.Sprintf("sim: proc %q charged %v inside a relay; a relay must not charge or park", p.name, d))
	}
}

// SpendThen is Spend(c, d), then r, then Spend of the charge r reports,
// calling r again at the wake of every charge it reports with More; it
// reports whether r's last step was Last rather than Decline. Where a charge
// parks p, the kernel runs r at its wake in p's place (DESIGN §4), so p is
// dispatched once, after the last charge or at the wake where r declines,
// instead of once after each charge. A chain may end in a Cond wait: r
// reports Stay, having put p on a Cond with Requeue, and from then on r is
// run at each wake of that wait (see WaitThen, a chain that starts there);
// the time from the Stay to p's resumption is parked time, less the
// charges r reports after it.
func (p *Proc) SpendThen(c Cat, d Duration, r Relay) bool {
	s := p.s
	p.checkCharge(d)
	if s.noFastPath { // the oracle: plain Spends and Waits, p running r itself
		p.Spend(c, d)
		return p.relayPlainly(r)
	}
	p.relay, p.c1, p.d1 = r, c, d
	if t := s.now + Time(max(d, 0)); !s.runAhead(t) {
		s.atProc(t, p)
		p.park()
	} else if s.runRelay(p) {
		p.park()
	}
	return p.relayEnded()
}

// relayPlainly is the oracle for a relay the kernel runs in p's place: p
// runs r itself, each charge a plain Spend and each Stay a plain wait, and
// it reports whether r's last step was Last.
func (p *Proc) relayPlainly(r Relay) bool {
	for {
		c, d, step := p.callRelay(r)
		switch step {
		case Decline:
			return false
		case Stay:
			p.wait()
			continue
		}
		p.Spend(c, d)
		if step == Last {
			return true
		}
	}
}

// relayEnded books, once p resumes, the Last charge its relay reported, as
// Spend would, and reports whether there was one.
func (p *Proc) relayEnded() bool {
	if p.relayed && p.Ledger != nil {
		p.Ledger.Spent[p.c2] += p.d2
	}
	return p.relayed
}

// runRelay does what p would do at a SpendThen charge's wake, or at a
// Cond wake of a chain in a wait (a charge of 0): book that charge, run the
// relay, and book the charge it reports as Advance would. While the relay
// reports More and its charge runs ahead, it goes round again at the new
// instant. It reports whether p stays parked: also after Stay, with the
// relay kept for p's next wake. A Stay starts a wait (Proc.waiting, from
// d2), whose charges are taken out of p's parked time where they are
// booked, and which ends (endStay) where the relay declines or reports its
// Last charge.
func (s *Scheduler) runRelay(p *Proc) bool {
	for {
		if p.Ledger != nil {
			p.Ledger.Spent[p.c1] += p.d1
		}
		if p.waiting {
			p.parked -= max(p.d1, 0)
		}
		c, d, step := p.callRelay(p.relay)
		switch step {
		case Decline:
			p.endStay()
			p.relay, p.relayed = nil, false // only now: this package's tests look
			return false
		case Stay:
			if !p.waiting {
				p.stay()
			}
			// The relay queued p on its Cond again; the next wake books
			// nothing, whatever charge came before this one.
			p.c1, p.d1 = 0, 0
			return true
		case Last:
			p.endStay()
			p.relay, p.relayed, p.c2, p.d2 = nil, true, c, d
		default:
			p.c1, p.d1 = c, d
		}
		if t := s.now + Time(max(d, 0)); !s.runAhead(t) {
			s.atProc(t, p)
			return true
		}
		if step == Last {
			return false
		}
	}
}

// stay starts the wait of p's chain now, keeping its start in d2.
func (p *Proc) stay() { p.waiting, p.d2 = true, Duration(p.s.now) }

// endStay ends the wait of p's chain, if it is in one: p resumes now, or
// after the Last charge the relay reports now, which stays p's.
func (p *Proc) endStay() {
	if p.waiting {
		p.parked += Duration(p.s.now) - p.d2
		p.waiting = false
	}
}

// Stepper is code whose charges and blocks all fall between its steps, so a
// proc can run it (RunSteps) or the kernel in the proc's place: Step runs it
// to its next charge and reports it (d > 0), or the Cond to wait on before
// it steps again, or neither once it is done. Where it stops, blocked or
// done, a second Step at the same instant reports the same. Its Relay is
// StepRelay of its Step.
type Stepper interface {
	Relay
	Step() (Cat, Duration, *Cond)
}

// StepRelay is a Stepper's Relay: a charge with More; Decline where Step
// stops, for RunSteps to step again.
func StepRelay(c Cat, d Duration, w *Cond) (Cat, Duration, Step) {
	if d > 0 && w == nil {
		return c, d, More
	}
	return 0, 0, Decline
}

// RunSteps runs s in p to its end: each run of charges as one SpendThen
// chain, so p is dispatched once per run, not per charge, and each block as
// a Cond.Wait. It takes s's concrete type, so s becomes a Relay through a
// static itab: the runtime fills an interface conversion's itab cache at
// random calls, an allocation no warm-up rules out.
func RunSteps[S Stepper](p *Proc, s S) {
	for {
		c, d, w := s.Step()
		switch {
		case w != nil:
			w.Wait(p)
		case d > 0:
			p.SpendThen(c, d, s)
		default:
			return
		}
	}
}
