package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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
// each completing through Engine.Land: the receive posted after the RTS
// arrived (RTS/CTS) or before the send (an RTR advertisement on the three
// socket wires, taken when the buffer holds the message), a buffer shorter
// than, equal to and longer than the message, and a message that fits one
// datagram or needs many. Each cell also sends a small message behind the
// rendezvous one, which must arrive intact.
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
	rep, _ := launchPair(t, kind, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			if early {
				// The receiver's advertisement precedes its barrier message
				// on the ordered wire, so it is in hand after the barrier.
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
	// The cell took the path it names: a direct write exactly when the wire
	// advertises and an advertisement could hold the message. The MemFabric
	// (mem, cluster/shm) counts no rendezvous envelopes, and on the Meiko
	// (180 B eager) the 1 KiB message behind is a rendezvous too.
	advertises := kind == "tcp" || kind == "udp" || kind == "unet"
	direct, rndv := int64(0), int64(1)
	if advertises && early && bufLen >= n {
		direct, rndv = 1, 0
	}
	switch kind {
	case "mem", "shm":
		rndv = 0
	case "meiko/lowlatency":
		rndv = 2
	}
	if got := rep.Acct.Count["rndv-rtr"]; got != direct || rep.Acct.Count["rndv"] != rndv {
		t.Fatalf("rndv-rtr = %d, rndv = %d; want %d, %d", got, rep.Acct.Count["rndv"], direct, rndv)
	}
}

// A synchronous send takes the RTS/CTS path past an advertisement, which
// lingers; the next same-tag standard send writes straight to it, the claim
// fails (its receive already completed), and the payload lands in a bounce
// buffer and re-enters the matcher as an eager arrival for the next receive.
func TestStaleClaimLanding(t *testing.T) {
	for _, kind := range []string{"tcp", "udp", "unet"} {
		for _, n := range []int{20 << 10, 200 << 10} {
			t.Run(fmt.Sprintf("%s/%d", kind, n), func(t *testing.T) {
				first, second := pattern(n, 1), pattern(n, 2)
				rep, _ := launchPair(t, kind, func(c *mpi.Comm) error {
					if c.Rank() == 0 {
						if err := c.Barrier(); err != nil {
							return err
						}
						if err := c.Ssend(1, 0, first); err != nil {
							return err
						}
						if err := c.Send(1, 0, second); err != nil {
							return err
						}
						return c.Send(1, 1, pattern(1024, 0xa5))
					}
					buf := make([]byte, n)
					r, err := c.Irecv(0, 0, buf)
					if err != nil {
						return err
					}
					if err := c.Barrier(); err != nil {
						return err
					}
					st, err := r.Wait()
					if err := checkLanded(st, err, buf, first); err != nil {
						return fmt.Errorf("first: %w", err)
					}
					buf = make([]byte, n)
					st, err = c.Recv(0, 0, buf)
					if err := checkLanded(st, err, buf, second); err != nil {
						return fmt.Errorf("second: %w", err)
					}
					return recvNext(c)
				})
				if len(rep.Protocol) != 0 {
					t.Fatalf("protocol errors: %v", rep.Protocol)
				}
				if got := rep.Acct.Count["rtr-stale"]; got != 1 {
					t.Fatalf("rtr-stale = %d, want 1: the second message did not take the lingering advertisement", got)
				}
			})
		}
	}
}

// held counts the landings tr's engine keeps that hold a receive's buffer
// or a bounce buffer.
func held(tr *transport) int {
	n := 0
	for src := range tr.size {
		if _, name, bounce := tr.eng.RndvHeld(src); name != 0 || bounce != nil {
			n++
		}
	}
	return n
}

// A pre-posted rendezvous receive that the RTS/CTS path serves never retires
// its advertisement at the sender: the engine keeps it for good. The
// receiver holds nothing for an advertisement, so once every message is in
// it holds no landing. One rank pre-posts 50 receives of 64 KiB and the
// other sends 50 same-tag messages. Served by Ssend, every advertisement
// lingers; served by Send, each stale advertisement is taken by the next
// message, whose claim then fails, so only the last lingers. The right
// sender value in every cell is 0 (ROADMAP item 4, unbounded host memory);
// the fix changes the wire protocol and flips the pin.
func TestAdvertisementLeakPinned(t *testing.T) {
	const msgs, n = 50, 64 << 10
	for _, tc := range []struct {
		kind       string
		sync       bool
		ads, stale int
	}{{"tcp", true, 50, 0}, {"udp", true, 50, 0}, {"tcp", false, 1, 49}, {"udp", false, 1, 5}} {
		rep, trs := launchPair(t, tc.kind, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				data := make([]byte, n)
				for i := 0; i < msgs; i++ {
					send := c.Send
					if tc.sync {
						send = c.Ssend
					}
					if err := send(1, 0, data); err != nil {
						return err
					}
				}
				return nil
			}
			rs := make([]*mpi.Request, msgs)
			for i := range rs {
				r, err := c.Irecv(0, 0, make([]byte, n))
				if err != nil {
					return err
				}
				rs[i] = r
			}
			_, err := mpi.WaitAll(rs...)
			return err
		})
		ads, _, _ := trs[0].eng.RndvHeld(1)
		landings := held(trs[1])
		stale := int(rep.Acct.Count["rtr-stale"])
		if landings != 0 || ads != tc.ads || stale != tc.stale {
			t.Errorf("cluster/%s, sync %v: %d landings, %d advertisements, %d stale claims left by %d messages; pinned 0, %d, %d",
				tc.kind, tc.sync, landings, ads, stale, msgs, tc.ads, tc.stale)
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

// One receive with two payloads in flight: the RTS of the first message
// matches it, and before that payload's CTS comes back the sender takes the
// receive's advertisement for the second message and writes it directly.
// Both payloads name the receive; the direct write must bounce (its claim
// fails on a receive that is matched but live, so no stale name is
// resolved) and the CTS-clocked payload must land in it.
func TestStaleClaimBesideItsPayload(t *testing.T) {
	for _, kind := range []string{"tcp", "udp", "unet"} {
		for _, n := range []int{20 << 10, 200 << 10} {
			t.Run(fmt.Sprintf("%s/%d", kind, n), func(t *testing.T) {
				first, second := pattern(n, 1), pattern(n, 2)
				rep, _ := launchPair(t, kind, func(c *mpi.Comm) error {
					if c.Rank() == 0 {
						r, err := c.Isend(1, 0, first) // no advertisement yet: RTS
						if err != nil {
							return err
						}
						// The advertisement precedes "go" on the ordered wire;
						// the CTS leaves only once the RTS has arrived.
						if _, err := c.Recv(1, 9, make([]byte, 1)); err != nil {
							return err
						}
						if err := c.Send(1, 0, second); err != nil {
							return err
						}
						if _, err := r.Wait(); err != nil {
							return err
						}
						return c.Send(1, 1, pattern(1024, 0xa5))
					}
					buf := make([]byte, n)
					r, err := c.Irecv(0, 0, buf)
					if err != nil {
						return err
					}
					if err := c.Send(0, 9, []byte{1}); err != nil {
						return err
					}
					st, err := r.Wait()
					if err := checkLanded(st, err, buf, first); err != nil {
						return fmt.Errorf("first: %w", err)
					}
					buf = make([]byte, n)
					st, err = c.Recv(0, 0, buf)
					if err := checkLanded(st, err, buf, second); err != nil {
						return fmt.Errorf("second: %w", err)
					}
					return recvNext(c)
				})
				if len(rep.Protocol) != 0 {
					t.Fatalf("protocol errors: %v", rep.Protocol)
				}
				if stale, names := rep.Acct.Count["rtr-stale"], rep.Acct.Count["req-stale"]; stale != 1 || names != 0 {
					t.Fatalf("rtr-stale = %d, req-stale = %d; want 1, 0: the direct write did not meet its receive matched and live", stale, names)
				}
			})
		}
	}
}

// A direct write claims its receive when its first frame is parsed, which
// can come before the engine has matched an earlier message from the same
// sender that the same poll parsed: the receive posted first then gets the
// later message, against MPI's non-overtaking rule. Rank 1 posts two
// same-tag 64 KiB receives; rank 0, once their advertisements are in, sends
// 100 B and then 64 KiB, which takes the first advertisement. Both arrive
// while rank 1 computes, so one poll parses both. The right counts are 100
// then 65 536 (ROADMAP item 4); the fix moves the claim into arrival order
// and flips the pin.
func TestDirectClaimOvertakesPinned(t *testing.T) {
	const n = 64 << 10
	for _, kind := range []string{"tcp", "udp", "unet"} {
		var got [2]int
		launchPair(t, kind, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				// The advertisements arrive, and a probe parses them.
				c.Compute(5 * time.Millisecond)
				if _, _, err := c.Iprobe(1, 9); err != nil {
					return err
				}
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
		if got != [2]int{n, 100} {
			t.Errorf("cluster/%s: the receives got %d and %d bytes; pinned %d and 100", kind, got[0], got[1], n)
		}
	}
}
