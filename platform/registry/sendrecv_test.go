package registry_test

import (
	"bytes"
	"testing"
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

// A Sendrecv that fails leaves no receive posted. Rank 0's Sendrecv names
// a send tag out of range, so it fails; rank 0 then receives tag 7 from
// rank 1, which sends "abcd". A receive the failed call had posted would
// take the message (and the later Recv would park for good). The tag is
// refused by mpi before the endpoint is called, on every platform; the
// endpoint's own withdrawal is TestSendrecvSendFailsReceiveWithdrawn's.
func TestFailedSendrecvLeavesNoReceive(t *testing.T) {
	for _, name := range []string{"mem", "cluster/tcp", "meiko/lowlatency", "meiko/mpich"} {
		s := registry.SpecFor(name)
		s.Ranks = 2
		stale, got := []byte("----"), make([]byte, 4)
		var srErr error
		_, err := registry.Run(s, func(c *mpi.Comm) error {
			if c.Rank() == 1 {
				return c.Send(0, 7, []byte("abcd"))
			}
			_, srErr = c.Sendrecv(1, -5, []byte("xy"), 1, 7, stale)
			_, err := c.Recv(1, 7, got)
			return err
		})
		switch {
		case err != nil:
			t.Errorf("%s: %v", name, err)
		case srErr == nil:
			t.Errorf("%s: a Sendrecv with send tag -5 succeeded", name)
		case string(stale) != "----" || string(got) != "abcd":
			t.Errorf("%s: the failed Sendrecv's buffer holds %q and the Recv's %q, want %q and %q", name, stale, got, "----", "abcd")
		}
	}
}

// A Sendrecv whose send fails — its destination, rank 1, is killed at
// 20 µs — returns the send's death and leaves no receive posted: rank 2's
// message, sent once the death is known everywhere, reaches rank 0's next
// Recv. The send is a 64 KiB rendezvous rank 1 never answers, pending when
// rank 1 dies, or issued once the death is known (rank 0 computes first),
// when Isend fails after the receive is posted. Rank 2 sends nothing
// before then, so a Sendrecv that waited for its receive once its send had
// failed would still hold rank 0. On mem the pair waits as one (the
// engine's pairWait), on the others as two Waits; meiko/mpich runs the
// same core.Sendrecv as those but takes no kill schedule.
func TestSendrecvSendFailsReceiveWithdrawn(t *testing.T) {
	for _, tc := range []struct {
		name        string
		known, send time.Duration // past the death's detection; rank 2's send
	}{
		{"mem", 200 * time.Microsecond, 300 * time.Microsecond},
		{"cluster/tcp", 3 * time.Millisecond, 4 * time.Millisecond},
		{"meiko/lowlatency", 200 * time.Microsecond, 300 * time.Microsecond},
	} {
		for _, late := range []bool{false, true} {
			s := registry.SpecFor(tc.name)
			s.Ranks, s.Kills = 3, "1@20us"
			stale, got := []byte("----"), make([]byte, 4)
			var srErr error
			rep, err := registry.Run(s, func(c *mpi.Comm) error {
				switch c.Rank() {
				case 0:
					if late {
						c.Compute(tc.known)
					}
					_, srErr = c.Sendrecv(1, 0, make([]byte, 64<<10), 2, 7, stale)
					_, err := c.Recv(2, 7, got)
					return err
				case 1:
					c.Compute(time.Second)
				case 2:
					c.Compute(tc.send)
					return c.Send(0, 7, []byte("abcd"))
				}
				return nil
			})
			switch {
			case err != rep.FirstErr() || rep.Errs[0] != nil || rep.Errs[2] != nil:
				t.Errorf("%s late %v: %v", tc.name, late, err)
			case !mpi.IsPeerDown(srErr):
				t.Errorf("%s late %v: the Sendrecv returned %v, want its destination's ErrPeerDown", tc.name, late, srErr)
			case string(stale) != "----" || string(got) != "abcd":
				t.Errorf("%s late %v: the failed Sendrecv's buffer holds %q and the Recv's %q, want %q and %q", tc.name, late, stale, got, "----", "abcd")
			}
		}
	}
}

// A Sendrecv on mem whose send completes and whose receive source, rank 1,
// is killed at 20 µs returns the receive's death, with nothing received.
func TestSendrecvReceiveSourceKilled(t *testing.T) {
	s := registry.SpecFor("mem")
	s.Ranks, s.Kills = 3, "1@20us"
	out, in := bytes.Repeat([]byte{1}, 1024), make([]byte, 1024)
	buf := make([]byte, 1024)
	var srErr error
	rep, err := registry.Run(s, func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			_, srErr = c.Sendrecv(2, 0, out, 1, 7, buf)
		case 1:
			c.Compute(time.Second)
		case 2:
			_, err := c.Recv(0, 0, in)
			return err
		}
		return nil
	})
	switch {
	case err != rep.FirstErr() || rep.Errs[0] != nil || rep.Errs[2] != nil:
		t.Errorf("%v", err)
	case !bytes.Equal(in, out):
		t.Errorf("rank 2 received %d bytes unlike the send", len(in))
	case !mpi.IsPeerDown(srErr):
		t.Errorf("the Sendrecv returned %v, want its source's ErrPeerDown", srErr)
	}
}
