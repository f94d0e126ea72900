package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/sim"
	"repro/mpi"
	_ "repro/platform/meiko" // registers meiko/lowlatency for the landing matrix
	"repro/platform/registry"
)

// pattern returns n bytes that differ from any other seed's at most offsets.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ seed
	}
	return b
}

// checkLanded holds one rendezvous receive to the matrix's checks: the
// status count, ErrTruncate exactly when buf is short of the message, the
// landed bytes, and nothing written past the count.
func checkLanded(st mpi.Status, err error, buf, sent []byte) error {
	want := min(len(sent), len(buf))
	var ce *core.Error
	if short := len(buf) < len(sent); short != (errors.As(err, &ce) && ce.Code == core.ErrTruncate) {
		return fmt.Errorf("receive error %v with a %d-byte buffer for %d bytes", err, len(buf), len(sent))
	}
	if st.Count != want {
		return fmt.Errorf("Status.Count = %d, want %d", st.Count, want)
	}
	if !bytes.Equal(buf[:want], sent[:want]) {
		return errors.New("payload bytes differ")
	}
	if bytes.ContainsFunc(buf[want:], func(r rune) bool { return r != 0 }) {
		return errors.New("bytes written past the count")
	}
	return nil
}

// recvNext receives the small eager message that follows a rendezvous one on
// the same pair and checks it arrived intact: after a discarded tail the
// stream must still be framed.
func recvNext(c *mpi.Comm) error {
	next := make([]byte, 1024)
	st, err := c.Recv(0, 1, next)
	if err != nil {
		return fmt.Errorf("next message: %w", err)
	}
	if st.Count != len(next) || !bytes.Equal(next, pattern(len(next), 0xa5)) {
		return fmt.Errorf("next message arrived damaged (%d bytes)", st.Count)
	}
	return nil
}

// launchPair runs body on a two-rank world over the given wire — a cluster
// transport, or the mem and meiko/lowlatency backends — and fails the test
// if the run or any rank does.
func launchPair(t *testing.T, kind string, body func(c *mpi.Comm) error) (*mpi.Report, []*transport) {
	t.Helper()
	var w *mpi.World
	var trs []*transport
	var err error
	switch kind {
	case "mem", "meiko/lowlatency":
		s := registry.SpecFor(kind)
		s.Ranks = 2
		w, err = registry.Build(s)
	default:
		w, trs, err = build(registry.Spec{Ranks: 2}, kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mpi.Launch(w, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(rep.Errs...); err != nil {
		t.Fatal(err)
	}
	return rep, trs
}

// Every way a rendezvous payload lands on the wires that run core.Engine,
// each completing through Engine.Land by RTS, CTS and Data: the receive
// posted after the RTS arrived (matched on post) or before the send
// (matched on arrival), a buffer shorter than, equal to and longer than the
// message, and a message that fits one datagram or needs many: 72 cells.
// Each cell also sends a small message behind the rendezvous one, which
// must arrive intact, and on the socket wires no landing holds anything
// once the run is over.
func TestLandingMatrix(t *testing.T) {
	for _, kind := range []string{"tcp", "udp", "unet", "shm", "mem", "meiko/lowlatency"} {
		for _, early := range []bool{false, true} {
			for _, n := range []int{20 << 10, 200 << 10} {
				for _, bufLen := range []int{n - 1000, n, n + 1000} {
					name := fmt.Sprintf("%s/early=%v/%d/buf%+d", kind, early, n, bufLen-n)
					t.Run(name, func(t *testing.T) { landingCell(t, kind, early, n, bufLen) })
				}
			}
		}
	}
}

func landingCell(t *testing.T, kind string, early bool, n, bufLen int) {
	sent := pattern(n, 1)
	rep, trs := launchPair(t, kind, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			if early {
				// The receive is posted once the barrier opens.
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			if err := c.Send(1, 0, sent); err != nil {
				return err
			}
			return c.Send(1, 1, pattern(1024, 0xa5))
		}
		buf := make([]byte, bufLen)
		var st mpi.Status
		var rerr error
		if early {
			r, err := c.Irecv(0, 0, buf)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			st, rerr = r.Wait()
		} else {
			c.Compute(10 * time.Millisecond) // the RTS arrives first
			st, rerr = c.Recv(0, 0, buf)
		}
		if err := checkLanded(st, rerr, buf, sent); err != nil {
			return err
		}
		return recvNext(c)
	})
	if len(rep.Protocol) != 0 {
		t.Fatalf("protocol errors: %v", rep.Protocol)
	}
	// The MemFabric (mem, cluster/shm) counts no rendezvous envelopes, and
	// on the Meiko (180 B eager) the 1 KiB message behind is a rendezvous
	// too.
	rndv := int64(1)
	switch kind {
	case "mem", "shm":
		rndv = 0
	case "meiko/lowlatency":
		rndv = 2
	}
	if got := rep.Acct.Count["rndv"]; got != rndv {
		t.Fatalf("rndv = %d, want %d", got, rndv)
	}
	for _, tr := range trs {
		for src := range tr.size {
			if name, left := tr.eng.RndvHeld(src), tr.eng.PayloadLeft(src); name != 0 || left != 0 {
				t.Errorf("rank %d's landing from %d still holds receive %d, %d bytes to come", tr.rank, src, name, left)
			}
		}
	}
}

// Many pre-posted rendezvous receives leave nothing behind on either rank.
// One rank pre-posts 50 receives of 64 KiB and the other sends 50 same-tag
// messages, by Ssend and by Send: each is one RTS/CTS/Data exchange, and
// once the run is over no landing holds a receive or bytes to come. (With
// the RDMA-write rendezvous this scenario left up to 50 advertisements at
// the sender.)
func TestAdvertisementLeakPinned(t *testing.T) {
	const msgs, n = 50, 64 << 10
	for _, kind := range []string{"tcp", "udp"} {
		for _, sync := range []bool{true, false} {
			rep, trs := launchPair(t, kind, func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					send := c.Send
					if sync {
						send = c.Ssend
					}
					for i := 0; i < msgs; i++ {
						if err := send(1, 0, pattern(n, byte(i))); err != nil {
							return err
						}
					}
					return nil
				}
				bufs := make([][]byte, msgs)
				rs := make([]*mpi.Request, msgs)
				for i := range rs {
					bufs[i] = make([]byte, n)
					r, err := c.Irecv(0, 0, bufs[i])
					if err != nil {
						return err
					}
					rs[i] = r
				}
				sts, err := mpi.WaitAll(rs...)
				if err != nil {
					return err
				}
				for i, st := range sts {
					if err := checkLanded(st, nil, bufs[i], pattern(n, byte(i))); err != nil {
						return fmt.Errorf("message %d: %w", i, err)
					}
				}
				return nil
			})
			if len(rep.Protocol) != 0 {
				t.Fatalf("cluster/%s, sync %v: protocol errors: %v", kind, sync, rep.Protocol)
			}
			if got := rep.Acct.Count["rndv"]; got != msgs {
				t.Errorf("cluster/%s, sync %v: rndv = %d, want %d", kind, sync, got, msgs)
			}
			for _, tr := range trs {
				for src := range tr.size {
					if name, left := tr.eng.RndvHeld(src), tr.eng.PayloadLeft(src); name != 0 || left != 0 {
						t.Errorf("cluster/%s, sync %v: rank %d's landing from %d still holds receive %d, %d bytes to come",
							kind, sync, tr.rank, src, name, left)
					}
				}
			}
		}
	}
}

// misname is a transport that sends every CTS-clocked payload under a name
// the receiver never issued: the one its CTS carried with the top generation
// bit flipped.
type misname struct{ *transport }

func (m misname) SendPayload(p *sim.Proc, req *core.Request, pkt *core.Packet) {
	pkt.Landing ^= 1 << 31
	m.transport.SendPayload(p, req, pkt)
}

// A Data frame naming no live receive, from a live sender, is one protocol
// error per frame: its payload comes off the wire into nothing, so the
// message behind it still arrives intact, and the engine is not handed a
// payload for an unknown receive on top. The sender misnames the payload
// its CTS asked for.
func TestUnknownHandleDrained(t *testing.T) {
	for _, kind := range []string{"tcp", "udp", "unet"} {
		for _, n := range []int{20 << 10, 200 << 10} {
			t.Run(fmt.Sprintf("%s/%d", kind, n), func(t *testing.T) {
				w, trs, err := build(registry.Spec{Ranks: 2}, kind)
				if err != nil {
					t.Fatal(err)
				}
				trs[0].eng.SetTransport(misname{trs[0]})
				rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
					if c.Rank() == 0 {
						if err := c.Send(1, 0, pattern(n, 1)); err != nil {
							return err
						}
						return c.Send(1, 1, pattern(1024, 0xa5))
					}
					c.Compute(10 * time.Millisecond) // the RTS arrives first
					// Matches the RTS; its payload never lands, so it is
					// left pending.
					if _, err := c.Irecv(0, 0, make([]byte, n)); err != nil {
						return err
					}
					return recvNext(c)
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := errors.Join(rep.Errs...); err != nil {
					t.Fatal(err)
				}
				frames := 1
				if kind != "tcp" {
					chunk := trs[0].dgram.MaxDatagram() - headerBytes
					frames = (n + chunk - 1) / chunk
				}
				errs := trs[1].eng.ProtocolErrors()
				if len(errs) != frames {
					t.Fatalf("%d protocol errors for %d frames: %v", len(errs), frames, errs)
				}
				for _, e := range errs {
					if !strings.Contains(e.Error(), "rendezvous data for unknown receive") {
						t.Errorf("protocol error %v, want only unknown-receive ones", e)
					}
				}
			})
		}
	}
}

// Two same-tag receives from one sender complete in the order they were
// posted, whatever the messages' sizes: the first gets the 100 B message and
// the second the 64 KiB one that followed it, though both arrive while the
// receiver computes and one poll parses both.
func TestSameTagReceivesInPostOrder(t *testing.T) {
	const n = 64 << 10
	for _, kind := range []string{"tcp", "udp", "unet"} {
		var got [2]int
		launchPair(t, kind, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				if err := c.Send(1, 0, make([]byte, 100)); err != nil {
					return err
				}
				return c.Send(1, 0, make([]byte, n))
			}
			rs := make([]*mpi.Request, 2)
			for i := range rs {
				r, err := c.Irecv(0, 0, make([]byte, n))
				if err != nil {
					return err
				}
				rs[i] = r
			}
			c.Compute(20 * time.Millisecond)
			for i, r := range rs {
				st, err := r.Wait()
				if err != nil {
					return err
				}
				got[i] = st.Count
			}
			return nil
		})
		if got != [2]int{100, n} {
			t.Errorf("cluster/%s: the receives got %d and %d bytes; want 100 and %d", kind, got[0], got[1], n)
		}
	}
}

// dataCount is a datagram link that counts the Data frames it sends.
type dataCount struct {
	dgramLink
	frames int
}

func (l *dataCount) SendFrame(p *sim.Proc, dst int, f *atm.Frame) error {
	if kind, _, _, _ := flow.DecodeHeader(f.B[l.Headroom():]); kind == core.PktData {
		l.frames++
	}
	return l.dgramLink.SendFrame(p, dst, f)
}

// A rendezvous payload of exactly k datagram chunks (MaxDatagram less the
// header each) ships as exactly k Data frames on udp and unet, and lands
// intact: no empty frame trails a payload that fills its last chunk
// (ROADMAP item 30: the chunk loop's bound weakened to `off <= len(data)`
// passed every test and record).
func TestWholeChunksShipNoEmptyDataFrame(t *testing.T) {
	for _, kind := range []string{"udp", "unet"} {
		for _, k := range []int{1, 2} {
			w, trs, err := build(registry.Spec{Ranks: 2, Seed: 1}, kind)
			if err != nil {
				t.Fatal(err)
			}
			link := &dataCount{dgramLink: trs[0].dgram}
			trs[0].dgram = link
			payload := pattern(k*(link.MaxDatagram()-headerBytes), 3)
			if _, err := mpi.Launch(w, func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					return c.Send(1, 0, payload)
				}
				buf := make([]byte, len(payload))
				if _, err := c.Recv(0, 0, buf); err != nil || !bytes.Equal(buf, payload) {
					return fmt.Errorf("received %v, intact %v", err, bytes.Equal(buf, payload))
				}
				return nil
			}); err != nil {
				t.Fatalf("%s, %d chunks: %v", kind, k, err)
			}
			if link.frames != k {
				t.Errorf("%s: a payload of exactly %d chunks shipped %d Data frames", kind, k, link.frames)
			}
		}
	}
}
