package atm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// These tests pin the datagram ownership rules: a frame handed to a medium
// is immutable (duplicates and retransmissions share it), the sender's user
// buffer is copied before Send returns, a receive view stays valid for as
// long as the reader keeps it, and none of that moves a simulated charge.

// pattern fills b with bytes that identify (sender, message).
func pattern(b []byte, sender, msg int) {
	for i := range b {
		b[i] = byte(sender*131 + msg*7 + i)
	}
}

// faultStreams sends msgs messages each way between two RUDP endpoints
// under f, from one user buffer per sender that is scribbled over the moment
// Send returns, in sizes of 1 to 3 fragments (streamSize). read gets each
// in-order datagram, with its index and the endpoint of host h that read
// it, and stops that host by reporting false. Every message must be read.
func faultStreams(t *testing.T, f Faults, msgs int, read func(r *RUDP, h, i int, d Datagram) bool) [2]*RUDP {
	s, cl := newCluster(2)
	if err := cl.SetFaults(f); err != nil {
		t.Fatal(err)
	}
	r := [2]*RUDP{}
	r[0], r[1] = rudpPair(cl)
	var got [2]int
	for h := 0; h < 2; h++ {
		s.Spawn(fmt.Sprintf("host%d", h), func(p *sim.Proc) {
			user := make([]byte, 20000)
			sent := 0
			for got[h] < msgs || len(r[h].peer(1-h).unacked) > 0 {
				if sent < msgs {
					b := user[:streamSize(sent)]
					pattern(b, h, sent)
					if err := r[h].Send(p, 1-h, b); err != nil {
						t.Errorf("host %d send %d: %v", h, sent, err)
						return
					}
					for i := range b {
						b[i] = 0xEE // MPI lets the caller reuse its buffer immediately
					}
					sent++
				}
				r[h].drain(p)
				d, ok, err := r[h].TryRecv()
				if err != nil {
					t.Errorf("host %d recv: %v", h, err)
					return
				}
				if ok {
					if !read(r[h], h, got[h], d) {
						return
					}
					got[h]++
				}
				p.Advance(200 * time.Microsecond)
			}
		})
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 2; h++ {
		if got[h] != msgs {
			t.Fatalf("host %d read %d messages, want %d", h, got[h], msgs)
		}
	}
	return r
}

func streamSize(i int) int { return []int{1, 700, 9152, 20000}[i%4] }

// sentAs reports whether b is message i from sender as faultStreams sent it.
func sentAs(b []byte, sender, i int) bool {
	want := make([]byte, streamSize(i))
	pattern(want, sender, i)
	return bytes.Equal(b, want)
}

// Both directions stream through loss, duplication and reordering. The
// receivers keep every view until the end: each must still hold exactly
// what was sent, in order, once.
func TestRUDPOwnershipUnderFaults(t *testing.T) {
	var views [2][][]byte
	r := faultStreams(t, Faults{Seed: 5, Loss: 0.1, Duplicate: 0.15, Reorder: 0.2}, 60, func(_ *RUDP, h, _ int, d Datagram) bool {
		views[h] = append(views[h], d.Data)
		return true
	})
	for h := 0; h < 2; h++ {
		for i, v := range views[h] {
			if !sentAs(v, 1-h, i) {
				t.Fatalf("host %d message %d (%d bytes) differs from what was sent", h, i, len(v))
			}
		}
	}
	if r[0].Retransmits+r[1].Retransmits == 0 || r[0].Duplicates+r[1].Duplicates == 0 {
		t.Errorf("schedule exercised nothing: %d retransmits, %d duplicates", r[0].Retransmits+r[1].Retransmits, r[0].Duplicates+r[1].Duplicates)
	}
}

// The same streams with every frame recycled: each payload is checked the
// moment it is read and released at once, so the lists are live throughout
// and a frame returned while anything still held it — a transmission in
// flight, a datagram queued, stashed or delivered — is overwritten by a
// later send before its reader gets to it. Timer and fast retransmits with
// restamped clones (both directions carry data, so the piggybacked ack
// moves), duplicates and 1–3 fragments per datagram all take part. At the
// end every idle frame has no holds and rests in exactly one list, within
// that list's bound.
func TestFrameHoldsUnderFaults(t *testing.T) {
	faults := Faults{Seed: 7, Loss: 0.1, Duplicate: 0.2, Reorder: 0.2, Jitter: 300 * time.Microsecond}
	r := faultStreams(t, faults, 200, func(reader *RUDP, h, i int, d Datagram) bool {
		if !sentAs(d.Data, 1-h, i) || d.Frame.holds.Load() < 1 {
			t.Errorf("host %d message %d (%d bytes, %d holds) differs from what was sent", h, i, len(d.Data), d.Frame.holds.Load())
			return false
		}
		reader.Release(d)
		return true
	})
	seen := map[*Frame]bool{}
	for h := 0; h < 2; h++ {
		u := r[h].sock
		for _, l := range []struct {
			list  *sim.FreeList[Frame]
			small bool
			bound int
		}{{&u.small, true, sim.DefaultFreeMax}, {&u.data, false, dataFramesIdle}} {
			if l.list.Len() > l.bound {
				t.Errorf("host %d: %d idle frames in a list bounded at %d", h, l.list.Len(), l.bound)
			}
			for f := range l.list.All() {
				if n := f.holds.Load(); n != 0 || seen[f] || (cap(f.B) <= smallFrame) != l.small {
					t.Errorf("host %d: idle frame of cap %d has %d holds (listed before: %v, small list: %v)", h, cap(f.B), n, seen[f], l.small)
				}
				seen[f] = true
			}
		}
	}
	rt := r[0].Retransmits + r[1].Retransmits
	fast := r[0].FastRetransmits + r[1].FastRetransmits
	if fast == 0 || rt == fast || r[0].Duplicates+r[1].Duplicates == 0 || len(seen) == 0 {
		t.Errorf("schedule exercised too little: %d retransmits (%d fast), %d duplicates, %d idle frames", rt, fast, r[0].Duplicates+r[1].Duplicates, len(seen))
	}
}

// A retransmission restamps the piggybacked ack while the original frame
// and its injected duplicate are still in flight: they must land with the
// ack they were sent with, only the retransmission carries the new one.
func TestRUDPRestampLeavesInFlightFramesAlone(t *testing.T) {
	s, cl := newCluster(2)
	if err := cl.SetFaults(Faults{Duplicate: 1, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	r0 := NewRUDP(cl.UDPSocket(0, OverATM), nil)
	u1 := cl.UDPSocket(1, OverATM) // raw socket: see the frames themselves
	var acks []uint32
	s.Spawn("tx", func(p *sim.Proc) {
		if err := r0.Send(p, 1, []byte("payload")); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		pr := r0.peer(1)
		pr.nextRecv = 5 // data from the peer arrived meanwhile
		r0.fastRetransmit(pr)
		pr.unacked[0].acked = true // silence the timer
	})
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, 64)
		for i := 0; i < 4; i++ {
			n, _ := u1.RecvFrom(p, buf)
			if n != rudpHeader+7 || string(buf[rudpHeader:n]) != "payload" {
				t.Errorf("frame %d: %q", i, buf[:n])
			}
			acks = append(acks, binary.BigEndian.Uint32(buf[5:9]))
		}
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(acks) != "[0 0 5 5]" {
		t.Fatalf("ack fields as delivered = %v, want [0 0 5 5] (original + duplicate untouched, then the restamped pair)", acks)
	}
}

// chargeProbe sends one size-byte datagram from host 0 to host 1 and reads
// it with a max-byte limit, through either the BSD copying calls or the
// owned/view calls, reporting how far each side's clock moved and what the
// reader saw.
func chargeProbe(t *testing.T, unet bool, size, max int, parked, owned bool) (tx, rx sim.Duration, got []byte) {
	t.Helper()
	s, cl := newCluster(2)
	u0, u1 := cl.UDPSocket(0, OverATM), cl.UDPSocket(1, OverATM)
	n0, n1 := cl.UNetSocket(0), cl.UNetSocket(1)
	msg := make([]byte, size)
	pattern(msg, 0, size)
	s.Spawn("tx", func(p *sim.Proc) {
		t0 := p.Now()
		switch {
		case unet && owned:
			n0.Send(p, 1, msg)
		case unet:
			n0.SendTo(p, 1, msg)
		case owned:
			f := u0.frame(len(msg))
			copy(f.B, msg)
			u0.send(p, 1, f)
		default:
			u0.SendTo(p, 1, msg)
		}
		tx = sim.Duration(p.Now() - t0)
	})
	s.Spawn("rx", func(p *sim.Proc) {
		if !parked {
			p.Advance(50 * time.Millisecond) // the datagram is queued by then
		}
		t0 := p.Now()
		buf := make([]byte, max)
		switch {
		case unet && owned:
			got = n1.Recv(p, max).Data
		case unet:
			n, _ := n1.RecvFrom(p, buf)
			got = buf[:n]
		case owned:
			got = u1.recv(p, max).Data
		default:
			n, _ := u1.RecvFrom(p, buf)
			got = buf[:n]
		}
		rx = sim.Duration(p.Now() - t0)
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return tx, rx, got
}

// Host copies and simulated copy cost are independent: the owned send and
// the view receive advance both clocks by exactly what SendTo and RecvFrom
// into a max-byte buffer do, whether or not the reader parked, including
// when the reader's limit truncates the datagram.
func TestOwnedPathChargesEqualCopyingPath(t *testing.T) {
	maxDgram := 8*(ATMMTU-UDPIPHeader) - UDPIPHeader
	for _, unet := range []bool{false, true} {
		limit := maxDgram
		if unet {
			limit = UNetMaxPDU
		}
		for _, size := range []int{0, 1, 9, 1024, ATMMTU - UDPIPHeader, limit} {
			for _, max := range []int{limit, size / 2, 4} { // full read and two truncating ones
				for _, parked := range []bool{false, true} {
					name := fmt.Sprintf("unet=%v/size=%d/max=%d/parked=%v", unet, size, max, parked)
					ctx, crx, cgot := chargeProbe(t, unet, size, max, parked, false)
					otx, orx, ogot := chargeProbe(t, unet, size, max, parked, true)
					if ctx != otx || crx != orx {
						t.Errorf("%s: copying path charged tx %v rx %v, owned path tx %v rx %v", name, ctx, crx, otx, orx)
					}
					if !bytes.Equal(cgot, ogot) || len(ogot) != min(size, max) {
						t.Errorf("%s: copying path read %d bytes, view %d, want %d equal bytes", name, len(cgot), len(ogot), min(size, max))
					}
				}
			}
		}
		for _, owned := range []bool{false, true} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("unet=%v owned=%v: oversized datagram did not panic", unet, owned)
					}
				}()
				chargeProbe(t, unet, limit+1, limit+1, false, owned)
			}()
		}
	}
}

// Reading a pure ack off the socket must not cost a datagram-sized scratch
// buffer (it did: 73 188 bytes per ack, most of what the layer allocated).
func TestDrainingAnAckAllocatesNoScratch(t *testing.T) {
	// On one P, as testing.AllocsPerRun measures: the runtime's own work
	// (a timer re-armed, a new M for an idle P) then cannot allocate inside
	// the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, cl := newCluster(2)
	r0, r1 := rudpPair(cl)
	const n = 200
	s.Spawn("acker", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			// The junk byte keeps the ack away from the interrupt-level
			// consumer, so it goes the long way: socket queue, then drain.
			r1.sock.SendTo(p, 0, []byte{rudpAck, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF})
		}
	})
	var perAck uint64
	s.Spawn("drainer", func(p *sim.Proc) {
		p.Advance(time.Second)
		if r0.sock.dq.Len() != n {
			t.Errorf("%d acks queued, want %d", r0.sock.dq.Len(), n)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r0.drain(p)
		runtime.ReadMemStats(&m1)
		perAck = (m1.TotalAlloc - m0.TotalAlloc) / n
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if r0.sock.Readable() || perAck >= 256 {
		t.Fatalf("draining a pure ack allocates %d bytes (socket readable: %v), want < 256", perAck, r0.sock.Readable())
	}
}

// FuzzRUDPDrain feeds one arbitrary raw datagram to a reliable endpoint.
// drain parses the peer's buffer in place, so a malformed frame must be
// skipped by a length or flag check, never sliced out of range; and the
// frame after it must still be delivered.
func FuzzRUDPDrain(f *testing.F) {
	for n := 0; n < rudpHeader; n++ {
		f.Add(bytes.Repeat([]byte{rudpData | rudpAck}, n)) // shorter than a header
	}
	f.Add(make([]byte, rudpHeader))                                          // flag byte 0
	f.Add(make([]byte, rudpHeader+40))                                       // flag byte 0, with a body
	f.Add([]byte{rudpAck, 0, 0, 0, 0, 0, 0, 0, 0})                           // pure ack
	f.Add([]byte{rudpAck, 0, 0, 0, 0, 0, 0, 0, 3, 'j', 'u', 'n', 'k'})       // ack-only with trailing junk
	f.Add([]byte{rudpAck, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})               // ack far beyond anything sent
	f.Add([]byte{rudpData | rudpAck, 0, 0, 0, 0, 0, 0, 0, 0})                // empty data frame, in order
	f.Add([]byte{rudpData, 0, 0, 0, 7, 0, 0, 0, 0, 'l', 'a', 't', 'e', 'r'}) // ahead of sequence: stashed
	f.Add([]byte{0xF0, 1, 2, 3, 4, 5, 6, 7, 8, 9})                           // unknown flag bits only
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, cl := newCluster(2)
		u0 := cl.UDPSocket(0, OverATM)
		r1 := NewRUDP(cl.UDPSocket(1, OverATM), nil)
		if len(raw) > u0.MaxDatagram() {
			raw = raw[:u0.MaxDatagram()]
		}
		// The follow-up takes whichever of sequence 0 and 1 raw does not
		// claim, so it is deliverable whatever raw turns out to be.
		follow := []byte{rudpData, 0, 0, 0, 0, 0, 0, 0, 0, 'o', 'k'}
		want := [][]byte{follow[rudpHeader:]}
		if len(raw) >= rudpHeader && raw[0]&rudpData != 0 {
			switch binary.BigEndian.Uint32(raw[1:5]) {
			case 0:
				follow[4] = 1
				want = [][]byte{raw[rudpHeader:], follow[rudpHeader:]}
			case 1: // stashed until the follow-up fills the hole
				want = [][]byte{follow[rudpHeader:], raw[rudpHeader:]}
			}
		}
		var got [][]byte
		s.Spawn("tx", func(p *sim.Proc) {
			u0.SendTo(p, 1, raw)
			u0.SendTo(p, 1, follow)
		})
		s.Spawn("rx", func(p *sim.Proc) {
			p.Advance(50 * time.Millisecond)
			for {
				r1.drain(p)
				d, ok, err := r1.TryRecv()
				if err != nil {
					t.Errorf("recv: %v", err)
				}
				if !ok {
					return
				}
				got = append(got, d.Data)
			}
		})
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("raw % x: delivered %d datagrams, want %d", raw, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("raw % x: datagram %d = %q, want %q", raw, i, got[i], want[i])
			}
		}
	})
}
