package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/mpi"
	"repro/platform/registry"
)

// A permanently severed link must surface as a typed MPI error at every
// rank with traffic in flight — not as a simulation deadlock. Both ranks
// send first so both reliability endpoints have undeliverable frames and
// both observe the death.
func TestDeadLinkSurfacesTypedError(t *testing.T) {
	w, trs, err := build(registry.Spec{Ranks: 2, Network: "atm", Partition: "0-1"}, "udp")
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trs {
		tr.dgram.(*atm.RUDP).MaxRetries = 3 // the link dies after 3 expiries, not the default 25
	}
	rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
		if err := c.Send(1-c.Rank(), 0, []byte{1}); err != nil {
			return err
		}
		_, err := c.Recv(1-c.Rank(), 0, make([]byte, 4))
		return err
	})
	if err == nil {
		t.Fatal("job over a severed link finished without error")
	}
	if !mpi.IsLinkDown(err) {
		t.Fatalf("error %v is not the typed link-down failure", err)
	}
	for r, e := range rep.Errs {
		if e == nil {
			t.Errorf("rank %d finished cleanly over a severed link", r)
		} else if !mpi.IsLinkDown(e) {
			t.Errorf("rank %d failed with %v, want link-down", r, e)
		}
	}
}

// A partition that heals is an outage, not a death: retransmission bridges
// it and the job completes with correct data.
func TestPartitionOutageHealsTransparently(t *testing.T) {
	const size = 4096
	_, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 2, Transport: "udp", Network: "atm",
		Partition: "0-1@1ms:40ms",
	}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 5)
			}
			return c.Send(1, 0, data)
		}
		buf := make([]byte, size)
		if _, err := c.Recv(0, 0, buf); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != byte(i*5) {
				t.Errorf("corrupt byte %d after outage", i)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// An added link delay fault must show up in the measured round trip —
// proof the injector sits under MPI, not beside it.
func TestDelayFaultStretchesRTT(t *testing.T) {
	base := pingPong(t, registry.Spec{Transport: "udp", Network: "atm"}, 1, 5)
	const oneWay = 2 * time.Millisecond
	slowed := pingPong(t, registry.Spec{
		Transport: "udp", Network: "atm",
		Delay: oneWay,
	}, 1, 5)
	if d := slowed - base; d < 2*oneWay*9/10 {
		t.Fatalf("2ms one-way delay fault stretched the RTT by only %v", d)
	}
}

// Messages stay intact and ordered under combined reordering and
// duplication — the reliability layer's sequencing absorbs both.
func TestReorderDuplicateStillCorrect(t *testing.T) {
	const msgs = 20
	_, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 2, Transport: "udp", Network: "atm",
		FaultSeed: 9, Reorder: 0.3, Duplicate: 0.3,
	}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, i, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			buf := make([]byte, 4)
			if _, err := c.Recv(0, i, buf); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				t.Errorf("msg %d carried %d", i, buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A loss-family knob on a wire that cannot drop a frame is an error naming
// the knob and the transport, never a silent no-op; so is Jitter, which
// would reorder a wire that does not resequence. The knobs that keep frame
// order keep working on every wire.
func TestLossKnobsNeedADroppableWire(t *testing.T) {
	lossFamily := map[string]func(*registry.Spec){
		"LossRate":   func(s *registry.Spec) { s.LossRate = 0.01 },
		"DropEveryN": func(s *registry.Spec) { s.DropEveryN = 7 },
		"Reorder":    func(s *registry.Spec) { s.Reorder = 0.1 },
		"Duplicate":  func(s *registry.Spec) { s.Duplicate = 0.1 },
		"Jitter":     func(s *registry.Spec) { s.Jitter = time.Millisecond },
	}
	everyFrame := map[string]func(*registry.Spec){
		"Delay":     func(s *registry.Spec) { s.Delay = time.Millisecond },
		"Partition": func(s *registry.Spec) { s.Partition = "0-1@1ms:2ms" },
	}
	for _, tr := range []string{"tcp", "udp", "unet", "shm"} {
		build := func(set func(*registry.Spec)) error {
			spec := registry.Spec{Platform: "cluster", Transport: tr, Ranks: 2}
			set(&spec)
			_, err := registry.Build(spec)
			return err
		}
		for knob, set := range lossFamily {
			err := build(set)
			switch tr {
			case "udp":
				if err != nil {
					t.Errorf("cluster/udp rejected %s: %v", knob, err)
				}
			case "shm":
				if err == nil || !strings.Contains(err.Error(), "lossy wire") {
					t.Errorf("cluster/shm with %s: %v, want the no-lossy-wire error", knob, err)
				}
			default:
				if err == nil || !strings.Contains(err.Error(), "cluster/"+tr+": Spec."+knob+" is set") {
					t.Errorf("cluster/%s with %s: %v, want an error naming both", tr, knob, err)
				}
			}
		}
		for knob, set := range everyFrame {
			if err := build(set); (err != nil) != (tr == "shm") {
				t.Errorf("cluster/%s with %s: %v", tr, knob, err)
			}
		}
	}
}

// An invalid fault policy is rejected at world construction, not at the
// first mangled frame.
func TestInvalidFaultPolicyRejected(t *testing.T) {
	_, err := registry.Build(registry.Spec{Platform: "cluster", Ranks: 2, Transport: "udp", Network: "atm", LossRate: 1.5})
	if err == nil {
		t.Fatal("out-of-range loss probability accepted")
	}
}

// A rank killed mid-rendezvous leaves nothing behind at a survivor. Rank 1
// sends rank 0 two 256 KiB messages, each RTS, CTS and Data. Whenever the
// kill falls, PeerDown must make rank 1's landing let go of the receive,
// and the payload rank 1's TCP stack keeps sending after the death must
// come off the wire without being parsed as frames or booked as protocol
// errors while rank 0 carries on with rank 2. An RTS of the dead rank's that no
// receive matched stays queued, and a wildcard receive that matches it after
// FailureAck fails with the death instead of sending a CTS into the fence.
func TestPeerDownSweepsLandingState(t *testing.T) {
	const size = 256 << 10
	for _, tc := range []struct {
		name, kind string
		killAt     time.Duration
		// What rank 0's landing from rank 1 holds one tick before rank 0
		// detects the death, and whether the second RTS is left queued.
		live, midFrame, rtsLeft bool
	}{
		// The second payload is half landed in its receive.
		{"tcp-mid-second", "tcp", 70 * time.Millisecond, true, true, false},
		// The first payload is half landed in its receive; the second
		// message's RTS is queued behind it and arrives from a rank already
		// dead.
		{"tcp-frame-behind", "tcp", 37 * time.Millisecond, true, true, true},
		// The second payload is half landed in its receive: a killed
		// rank's reliable UDP sends nothing after its death, so the rest
		// never comes.
		{"udp-mid-second", "udp", 40 * time.Millisecond, true, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, trs, err := build(registry.Spec{Ranks: 3}, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.ScheduleKills([]atm.Kill{{Rank: 1, At: tc.killAt}}); err != nil {
				t.Fatal(err)
			}
			tr := trs[0]
			live, midFrame, rtsLeft := false, false, false
			w.Sched(0).After(tc.killAt+w.FTDetect-1, func() {
				live, midFrame = tr.eng.RndvHeld(1) != 0, tr.eng.PayloadLeft(1) > 0
			})
			rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
				switch c.Rank() {
				case 0:
					for i := 0; i < 2; i++ {
						r, err := c.Irecv(1, 0, make([]byte, size))
						if err == nil {
							_, err = r.Wait()
						}
						if mpi.IsPeerDown(err) {
							break
						}
						if err != nil {
							return fmt.Errorf("receive %d: %w", i, err)
						}
					}
					fallthrough // outlive everything rank 1 sent
				case 2:
					peer := 2 - c.Rank()
					for i := 0; i < 100; i++ {
						if _, err := c.Sendrecv(peer, 1, []byte{1}, peer, 1, make([]byte, 1)); err != nil {
							return err
						}
					}
					st, ok, err := c.Iprobe(mpi.AnySource, 0)
					if err != nil || !ok {
						return err
					}
					rtsLeft = st.Source == 1
					c.FailureAck()
					if _, err := c.Recv(mpi.AnySource, 0, make([]byte, size)); !mpi.IsPeerDown(err) {
						return fmt.Errorf("a wildcard receive matching the dead rank's RTS returned %v, want its death", err)
					}
				case 1:
					for i := 0; i < 2; i++ {
						if err := c.Send(0, 0, make([]byte, size)); err != nil {
							return err
						}
					}
				}
				return nil
			})
			// The run fails with rank 1's death and nothing else: a survivor
			// parked for good is the kernel's deadlock error instead.
			if err != rep.FirstErr() || rep.Errs[0] != nil || rep.Errs[2] != nil {
				t.Fatalf("run: %v; survivors failed: %v", err, rep.Errs)
			}
			if live != tc.live || midFrame != tc.midFrame || rtsLeft != tc.rtsLeft {
				t.Fatalf("scenario drifted: before detection rank 0's landing from rank 1 held a receive %v (want %v), a half-read payload %v (want %v); an RTS left queued %v (want %v)",
					live, tc.live, midFrame, tc.midFrame, rtsLeft, tc.rtsLeft)
			}
			if tr.eng.RndvHeld(1) != 0 || tr.eng.PayloadLeft(1) > 0 {
				t.Errorf("the landing from the dead rank still holds receive %d, %d bytes to come", tr.eng.RndvHeld(1), tr.eng.PayloadLeft(1))
			}
			if errs := tr.eng.ProtocolErrors(); len(errs) != 0 {
				t.Errorf("rank 0 booked protocol errors: %v", errs)
			}
			// Every inbox record, the dead rank's included, rests in exactly
			// one place.
			ins := make([]*core.Inbox, len(trs))
			for i, tr := range trs {
				ins[i] = &tr.inbox
			}
			if n, err := core.AuditInboxes(ins...); err != nil || n == 0 {
				t.Errorf("inbox audit: %d records at rest, %v", n, err)
			}
		})
	}
}
