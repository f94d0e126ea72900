package registry_test

import (
	"fmt"
	"testing"
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

// A receive that matches the rendezvous announcement of a rank already
// declared dead completes with that rank's death and sends no CTS. Rank 1
// sends 256 KiB and is killed at 20 ms, its RTS unexpected at rank 0; rank 0
// computes past the detection, acknowledges the failure and receives, from
// any source or from rank 1. A CTS sent into the dead rank's fence would
// park rank 0 for good, on every backend that runs the poll-model engine.
func TestDeadRankRTSFailsItsReceive(t *testing.T) {
	for _, name := range []string{"mem", "meiko/lowlatency", "cluster/shm", "cluster/tcp", "cluster/udp", "cluster/unet"} {
		for _, src := range []int{mpi.AnySource, 1} {
			s := registry.SpecFor(name)
			s.Ranks, s.Kills = 3, "1@20ms"
			w, err := registry.Build(s)
			if err != nil {
				t.Fatal(err)
			}
			var got error
			rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
				switch c.Rank() {
				case 0:
					c.Compute(200 * time.Millisecond)
					c.FailureAck()
					_, got = c.Recv(src, 0, make([]byte, 256<<10))
				case 1:
					return c.Send(0, 0, make([]byte, 256<<10))
				}
				return nil
			})
			// The run fails with rank 1's death and nothing else: rank 0
			// parked for good is the kernel's deadlock error instead.
			if err != rep.FirstErr() || rep.Errs[0] != nil || rep.Errs[2] != nil {
				t.Errorf("%s, source %d: %v", name, src, err)
			} else if !mpi.IsPeerDown(got) {
				t.Errorf("%s, source %d: the receive returned %v, want the dead rank's ErrPeerDown", name, src, got)
			}
		}
	}
}

// A killed rank ships none of the sends its flow control still held: they
// failed with its death, and a credit returned to the corpse releases
// nothing. Rank 0 issues eight 100-byte sends, of which the pair's credits
// admit the first few, and computes; it is killed, and rank 1 starts
// receiving after the kill and before the detection. It gets exactly what
// left before the kill, and its next receive fails with the death. The mem
// fabric once lacked the failed-send check: its corpse shipped all eight,
// one per returned credit, the last at 58 µs.
func TestKilledRankShipsNoQueuedSend(t *testing.T) {
	for _, tc := range []struct {
		name       string
		credit     int
		kill, from time.Duration
		want       int           // messages rank 1 receives
		last       time.Duration // when the last one completes
	}{
		{"mem", 200, 50 * time.Microsecond, 52 * time.Microsecond, 2, 52 * time.Microsecond},
		{"cluster/tcp", 400, 5 * time.Millisecond, 5100 * time.Microsecond, 3, 6616125 * time.Nanosecond},
		{"cluster/udp", 400, 5 * time.Millisecond, 5100 * time.Microsecond, 3, 6390795 * time.Nanosecond},
		{"cluster/unet", 400, 5 * time.Millisecond, 5100 * time.Microsecond, 3, 5307 * time.Microsecond},
	} {
		s := registry.SpecFor(tc.name)
		s.Ranks, s.Credit, s.Kills = 2, tc.credit, fmt.Sprintf("0@%v", tc.kill)
		got, last := 0, time.Duration(0)
		rep, err := registry.Run(s, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < 8; i++ {
					if _, err := c.Isend(1, i, make([]byte, 100)); err != nil {
						return err
					}
				}
				c.Compute(time.Second)
				return nil
			}
			c.Compute(tc.from)
			buf := make([]byte, 100)
			for i := 0; i < 8; i++ {
				if _, err := c.Recv(0, i, buf); err != nil {
					if !mpi.IsPeerDown(err) {
						return err
					}
					return nil
				}
				got, last = got+1, c.Wtime()
			}
			return nil
		})
		if err != rep.FirstErr() || rep.Errs[1] != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want || last != tc.last {
			t.Errorf("%s: rank 1 received %d of 8, the last at %v; want %d, the last at %v", tc.name, got, last, tc.want, tc.last)
		}
	}
}

// A receive that returned a sender's death owns its buffer no longer, and
// nothing writes it afterwards. Rank 1 sends 256 KiB of 0x11 and is killed
// while the rendezvous is in flight; rank 0's receive returns the death,
// rank 0 fills the buffer with 0xAB and computes for 20 ms, long enough for
// any payload still moving to land. On the Meiko the sender's Elan DMA
// outlived its sender and its landing copied all 262 144 bytes into the
// handed-back buffer at every one of these instants, while the socket wires
// wrote none.
func TestDeadSenderWritesNoReturnedBuffer(t *testing.T) {
	const size = 256 << 10
	for _, name := range []string{"meiko/lowlatency", "cluster/tcp", "cluster/udp"} {
		for _, kill := range []time.Duration{300 * time.Microsecond, 622 * time.Microsecond, 2 * time.Millisecond, 5 * time.Millisecond} {
			s := registry.SpecFor(name)
			s.Ranks, s.Kills = 2, fmt.Sprintf("1@%v", kill)
			buf := make([]byte, size)
			var recvErr error
			// The run's own error is not checked: on tcp a rank killed
			// mid-write ends it in a deadlock (TestKilledMidWriteDefectPinned).
			registry.Run(s, func(c *mpi.Comm) error {
				if c.Rank() == 1 {
					payload := make([]byte, size)
					for i := range payload {
						payload[i] = 0x11
					}
					return c.Send(0, 0, payload)
				}
				_, recvErr = c.Recv(1, 0, buf)
				for i := range buf {
					buf[i] = 0xAB
				}
				c.Compute(20 * time.Millisecond)
				return nil
			})
			if !mpi.IsPeerDown(recvErr) {
				t.Errorf("%s, kill at %v: the receive returned %v, want the sender's death", name, kill, recvErr)
				continue
			}
			written := 0
			for _, b := range buf {
				if b != 0xAB {
					written++
				}
			}
			if written != 0 {
				t.Errorf("%s, kill at %v: %d of %d bytes written after the receive returned", name, kill, written, size)
			}
		}
	}
}
