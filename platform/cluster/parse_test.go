package cluster

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/platform/registry"
)

// A TCP frame's parse is three reads, each charged as atm.TCP.Read charges
// one (TestSocketReadCharges in internal/atm): the syscall (SyscallRead +
// ReadExtraATM) and the copy (bytes × CopyPerByte) under Syscall, plus
// KernelWakeup under Kernel for a read that blocks. The Read* spans are
// booked beside the clock: the type read's, the envelope read's and the
// payload read's, each from its syscall to its copy's wake. Two cases, by
// hand: the whole frame buffered when the parse begins (every read
// relayed), and the payload landing after its read's syscall has found
// nothing (the steps stop on the connection, and the rank blocks, then goes
// on with the copy). Both must surface the eager packet intact from one
// poll, and each read return its window at its copy's wake.
func TestFrameParseCharges(t *testing.T) {
	k := atm.DefaultCosts()
	syscall, copied := k.SyscallRead+k.ReadExtraATM, func(n int) sim.Duration { return sim.Duration(n) * k.CopyPerByte }
	payload := bytes.Repeat([]byte("p"), 1024)
	const start = time.Millisecond // when the parse begins, the header long landed
	for _, split := range []bool{false, true} {
		w, trs, err := build(registry.Spec{Ranks: 2, Seed: 1}, "tcp")
		if err != nil {
			t.Fatal(err)
		}
		s, r := w.S, trs[1]
		conn := r.conns[0]
		var lands, updates []sim.Time
		conn.OnReadable(func() { lands = append(lands, s.Now()) })
		trs[0].conns[1].OnWritable(func() { updates = append(updates, s.Now()) })
		env := core.Envelope{Source: 0, Dest: 1, Count: len(payload)}
		frame := trs[0].tcpFrame(1, core.PktEager, env, 0, payload)
		s.Spawn("writer", func(p *sim.Proc) {
			if !split {
				trs[0].conns[1].Write(p, frame)
				return
			}
			trs[0].conns[1].Write(p, frame[:headerBytes])
			// The payload leaves once the reader is in its payload read's
			// syscall, so it lands after that syscall's wake.
			p.Advance(start + 2*syscall + copied(headerBytes) - p.Now().Duration())
			trs[0].conns[1].Write(p, frame[headerBytes:])
		})
		acct := r.eng.Acct()
		var end sim.Time
		var pkt *core.Packet
		s.Spawn("reader", func(p *sim.Proc) {
			p.Ledger = &acct.Ledger
			p.Advance(start)
			pkt = poll(p, r)
			end = p.Now()
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}

		wantEnd := sim.Time(start + 3*syscall + copied(headerBytes+len(payload)))
		wantKernel := sim.Duration(0)
		if split {
			wake := sim.Time(start + 3*syscall + copied(headerBytes))
			if len(lands) != 2 || lands[1] <= wake {
				t.Fatalf("split: landings at %v, want the payload's after the payload syscall's wake at %v", lands, wake)
			}
			wantEnd = lands[1] + sim.Time(k.KernelWakeup+copied(len(payload)))
			wantKernel = k.KernelWakeup
		}
		l := acct.Ledger
		payloadStart := sim.Time(start + 2*syscall + copied(headerBytes))
		for _, c := range []struct {
			what      string
			got, want sim.Duration
		}{
			{"end", sim.Duration(end), sim.Duration(wantEnd)},
			{"spent syscall", l.Spent[sim.Syscall], 3*syscall + copied(headerBytes+len(payload))},
			{"spent kernel", l.Spent[sim.Kernel], wantKernel},
			{"booked read-type", l.Booked[sim.ReadType], syscall + copied(1)},
			{"booked read-env", l.Booked[sim.ReadEnv], syscall + copied(headerBytes-1)},
			{"booked read-data", l.Booked[sim.ReadData], sim.Duration(wantEnd - payloadStart)},
		} {
			if c.got != c.want {
				t.Errorf("split %v: %s %v, want %v", split, c.what, c.got, c.want)
			}
		}
		// Each read returns its window at its copy's wake: the updates,
		// alike on an idle wire, land as far apart as those wakes.
		if !split && (len(updates) != 3 || updates[1]-updates[0] != sim.Time(syscall+copied(headerBytes-1)) ||
			updates[2]-updates[1] != sim.Time(syscall+copied(len(payload)))) {
			t.Errorf("window updates landed at %v, want one per read, each a copy's wake after the last", updates)
		}
		if pkt == nil || pkt.Kind != core.PktEager || !bytes.Equal(pkt.Data, payload) || conn.Readable() {
			t.Errorf("split %v: surfaced %+v, %d bytes left buffered; want the eager frame, nothing left", split, pkt, conn.Buffered())
		}
	}
}

// poll runs r's PollStep in p up to the packet it surfaces, each charge
// spent and each block waited out, as the engine's receive chain runs it.
func poll(p *sim.Proc, r *transport) *core.Packet {
	for {
		c, d, pkt, w := r.PollStep()
		switch {
		case w != nil:
			w.Wait(p)
		case d > 0:
			p.Spend(c, d)
		default:
			return pkt
		}
	}
}
