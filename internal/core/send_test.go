package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// fakeWire is a Transport that records what the engine asks of it. Its
// PollStep runs the next scripted step, which may call Engine.Credit as a
// socket poll does when it parses a header, and surfaces what the step
// returns, charging nothing.
type fakeWire struct {
	e     *Engine
	inbox Inbox // lands PktCredit flights, as the Meiko and mem wires do
	log   []string
	steps []func() *Packet
}

func (w *fakeWire) Ship(p *sim.Proc, dst int, pkt Packet) {
	ctx := "rank"
	if p == nil {
		ctx = "event"
	}
	w.log = append(w.log, fmt.Sprintf("ship %v tag %d to %d (%s)", pkt.Kind, pkt.Env.Tag, dst, ctx))
}

func (w *fakeWire) Accept(p *sim.Proc, msg *InMsg, req *Request) { w.log = append(w.log, "accept") }

func (w *fakeWire) SendPayload(p *sim.Proc, req *Request, pkt *Packet) {
	w.log = append(w.log, "payload")
}

func (w *fakeWire) PollStep() (sim.Cat, sim.Duration, *Packet, *sim.Cond) {
	w.log = append(w.log, "poll")
	if len(w.steps) == 0 {
		return 0, 0, nil, nil
	}
	step := w.steps[0]
	w.steps = w.steps[1:]
	return 0, 0, step(), nil
}

// PeerDown records what the engine still holds toward rank.
func (w *fakeWire) PeerDown(rank int) {
	released := 0
	for req := range w.e.released.All() {
		if req.Env.Dest == rank {
			released++
		}
	}
	w.log = append(w.log, fmt.Sprintf("peerdown %d: %d queued, %d released", rank, w.e.fc.QueuedLen(rank), released))
}

// credit lands a PktCredit returning one slot from src in the inbox, as a
// wire's delivery event does.
func (w *fakeWire) credit(src int) func() {
	return w.inbox.Flight(&w.inbox, Packet{Kind: PktCredit, Env: Envelope{Source: src, Count: 1}})
}

// runFake runs body as rank 0 of three on a fakeWire whose send queue
// grants one slot per destination, and returns the wire's log.
func runFake(t *testing.T, body func(p *sim.Proc, e *Engine, w *fakeWire)) []string {
	t.Helper()
	s := sim.NewScheduler(1)
	e := NewEngine(s, 0, 3, EngineCosts{})
	w := &fakeWire{e: e}
	w.inbox.Init(e)
	e.SetTransport(w)
	e.SetFlow(100, NewSendQueue(3, 1, 1, func(*Request) int { return 1 }, e.Acct()))
	s.Spawn("rank0", func(p *sim.Proc) {
		p.Ledger = &e.Acct().Ledger
		body(p, e, w)
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return w.log
}

// isend starts an 8-byte standard send from rank 0.
func isend(t *testing.T, p *sim.Proc, e *Engine, dst, tag int) *Request {
	t.Helper()
	req, err := e.Isend(p, dst, tag, 0, ModeStandard, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func wantLog(t *testing.T, got []string, want ...string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("wire saw\n\t%q\nwant\n\t%q", got, want)
	}
}

// A credit that lands in the inbox ships the send it releases at once, in
// event context (p nil), without a poll.
func TestSendInboxCreditShipsAtOnce(t *testing.T) {
	log := runFake(t, func(p *sim.Proc, e *Engine, w *fakeWire) {
		isend(t, p, e, 1, 0)
		isend(t, p, e, 1, 1) // waits for the slot
		e.s.After(time.Microsecond, w.credit(1))
		p.Advance(2 * time.Microsecond)
	})
	wantLog(t, log, "ship eager tag 0 to 1 (rank)", "ship eager tag 1 to 1 (event)")
}

// A credit the wire parses inside its poll releases its send to the
// engine, which ships it once the poll has surfaced, from the rank, then
// polls again.
func TestSendPolledCreditShipsAfterPoll(t *testing.T) {
	log := runFake(t, func(p *sim.Proc, e *Engine, w *fakeWire) {
		for tag := range 3 {
			isend(t, p, e, 1, tag) // tags 1 and 2 wait for the slot
		}
		parse := func(pkt *Packet) func() *Packet {
			return func() *Packet {
				e.Credit(1, 1)
				w.log = append(w.log, "parsed a credit")
				return pkt
			}
		}
		// A sync ack naming no request: surfaced, and handled as nothing.
		w.steps = []func() *Packet{parse(&Packet{Kind: PktSyncAck, ReqID: -1}), parse(nil)}
		e.Progress(p)
	})
	wantLog(t, log, "ship eager tag 0 to 1 (rank)",
		"poll", "parsed a credit", "ship eager tag 1 to 1 (rank)",
		"poll", "parsed a credit", "ship eager tag 2 to 1 (rank)", "poll")
}

// A send that failed while it queued never reaches the wire, whichever
// credit releases it.
func TestSendFailedWhileQueuedNeverShips(t *testing.T) {
	log := runFake(t, func(p *sim.Proc, e *Engine, w *fakeWire) {
		isend(t, p, e, 1, 0)
		isend(t, p, e, 1, 1)
		isend(t, p, e, 2, 2)
		isend(t, p, e, 2, 3)
		e.Kill(errors.New("killed"))
		w.credit(1)()
		w.steps = []func() *Packet{func() *Packet { e.Credit(2, 1); return nil }}
		e.Progress(p)
	})
	wantLog(t, log, "ship eager tag 0 to 1 (rank)", "ship eager tag 2 to 2 (rank)", "poll", "poll")
}

// PeerDown drops the sends queued and released toward the dead rank before
// the wire hears of it, and keeps every other destination's.
func TestSendPeerDownDropsBothLists(t *testing.T) {
	log := runFake(t, func(p *sim.Proc, e *Engine, w *fakeWire) {
		isend(t, p, e, 1, 0)
		isend(t, p, e, 1, 1)
		isend(t, p, e, 1, 2)
		isend(t, p, e, 2, 3)
		isend(t, p, e, 2, 4)
		w.steps = []func() *Packet{func() *Packet {
			e.Credit(2, 1)
			e.Credit(1, 1) // releases tag 1; tag 2 stays queued
			e.PeerDown(1, nil)
			return nil
		}}
		e.Progress(p)
	})
	wantLog(t, log, "ship eager tag 0 to 1 (rank)", "ship eager tag 3 to 2 (rank)",
		"poll", "peerdown 1: 0 queued, 0 released", "ship eager tag 4 to 2 (rank)", "poll")
}
