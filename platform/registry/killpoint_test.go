package registry_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/mpi"
	"repro/platform/registry"
)

// survive takes a peer-down error as the answer to a survivor's call.
func survive(err error) error {
	if err != nil && !mpi.IsPeerDown(err) {
		return err
	}
	return nil
}

// handedBack fills every receive buffer the probe has handed back.
const handedBack = 0xAB

// returned holds rank 0's receive buffers once their Recv has returned,
// each filled with handedBack: a receive that returned, even with a peer's
// death, owns its buffer no longer, and nothing may write it afterwards
// (ROADMAP item 21(b)).
type returned [][]byte

// hand fills buf with handedBack and keeps it.
func (r *returned) hand(buf []byte) {
	for i := range buf {
		buf[i] = handedBack
	}
	*r = append(*r, buf)
}

// written reports whether anything wrote a handed-back buffer.
func (r returned) written() bool {
	for _, buf := range r {
		for _, b := range buf {
			if b != handedBack {
				return true
			}
		}
	}
	return false
}

// killProgram is the kill-point probe's job on 3 ranks. Rank 1 Isends 8 ×
// 100 B to rank 0 (tags 0–7), Sends it 256 KiB, receives 1 KiB from rank
// 2 and waits for its Isends. Rank 2 sends that 1 KiB, then 64 KiB to
// rank 0. Rank 0 receives all of it in that order, each into a buffer of
// its own that it hands back to ret once the Recv returns. A survivor
// takes a peer-down error as the answer to a call and goes on; any other
// error is its body's.
func killProgram(ret *returned) func(c *mpi.Comm) error {
	return func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			recv := func(src, tag, n int) error {
				buf := make([]byte, n)
				_, err := c.Recv(src, tag, buf)
				ret.hand(buf)
				return survive(err)
			}
			for tag := 0; tag < 8; tag++ {
				if err := recv(1, tag, 100); err != nil {
					return err
				}
			}
			if err := recv(1, 8, 256<<10); err != nil {
				return err
			}
			return recv(2, 9, 64<<10)
		case 1:
			var reqs []*mpi.Request
			for tag := 0; tag < 8; tag++ {
				r, err := c.Isend(0, tag, make([]byte, 100))
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			if err := c.Send(0, 8, make([]byte, 256<<10)); err != nil {
				return err
			}
			if _, err := c.Recv(2, 10, make([]byte, 1<<10)); err != nil {
				return err
			}
			_, err := mpi.WaitAll(reqs...)
			return err
		default:
			if err := survive(c.Send(1, 10, make([]byte, 1<<10))); err != nil {
				return err
			}
			return survive(c.Send(0, 9, make([]byte, 64<<10)))
		}
	}
}

// windowProgram is the kill-point probe's one-sided job on 3 ranks: rank 1
// Puts into ranks 0 and 2 over four Fence epochs, alternating 100 B and
// 64 KiB, then every rank calls Free. A survivor takes peer-down, or the
// revoke a peer-down makes (of the window's communicator, or of the
// world's by a survivor whose WinCreate failed), as the answer to
// WinCreate, Fence or Free and goes on; a Fence that returns nil must have
// applied its epoch's Put.
func windowProgram(c *mpi.Comm) error {
	answer := func(err error) error {
		if mpi.IsRevoked(err) {
			return nil
		}
		return survive(err)
	}
	sizes := []int{100, 64 << 10, 100, 64 << 10}
	win, err := c.WinCreate(64 << 10)
	if err != nil {
		if mpi.IsPeerDown(err) && !c.Dead() {
			c.Revoke()
		}
		return answer(err)
	}
	for e, n := range sizes {
		if c.Rank() == 1 {
			data := bytes.Repeat([]byte{byte(e + 1)}, n)
			if err := win.Put(0, 0, data); err != nil {
				return err
			}
			if err := win.Put(2, 0, data); err != nil {
				return err
			}
		}
		err := win.Fence()
		if err == nil && c.Rank() != 1 && !bytes.Equal(win.Bytes()[:n], bytes.Repeat([]byte{byte(e + 1)}, n)) {
			return fmt.Errorf("rank %d: epoch %d's Put is not in the window after its Fence", c.Rank(), e)
		}
		if answer(err) != nil {
			return err
		}
	}
	return answer(win.Free())
}

// killRow is one backend's count, over the 99 kill points, of each way a
// kill still goes wrong, and the ROADMAP items that own the counts.
type killRow struct {
	deadlocks int // the run parks a rank for good
	drains    int // the run drains more than 1 ms after the last survivor
	late      int // the victim's clock ends more than 1 µs past its kill
	written   int // something wrote a receive buffer rank 0 had handed back
	owner     string
}

// Rank 1 of each program is killed at i/100 of the fault-free run's
// MaxRankElapsed, for i = 1…99, on every backend that accepts kills (ROADMAP
// item 21; meiko/mpich rejects kills). The survivors' calls return success
// or peer-down in every run, and in the messages program nothing writes a
// receive buffer rank 0 has handed back, during the run or after it (the
// written column: 0 in all 594 runs). What still goes wrong is pinned per
// program and backend: a row that moves fails the test, so a fix states
// what it cleared and a regression cannot hide behind it.
func TestKillAtEveryInstant(t *testing.T) {
	programs := []struct {
		name   string
		body   func(*returned) func(*mpi.Comm) error
		pinned map[string]killRow
	}{
		{"messages", killProgram, map[string]killRow{
			"mem": {0, 0, 0, 0, ""},
			// The dead sender's DMA runs on to its end.
			"meiko/lowlatency": {0, 43, 1, 0, "drains: item 22; late: item 21(c)"},
			"cluster/shm":      {0, 0, 13, 0, "late: item 21(c)"},
			// A victim killed in its write interleave parks for good.
			"cluster/tcp": {14, 1, 55, 0, "deadlocks and drains: items 22 and 26; late: item 21(c)"},
			// Every run waits out the acked frames' RUDP timers.
			"cluster/udp":  {0, 99, 46, 0, "drains: items 9 and 21; late: item 21(c)"},
			"cluster/unet": {0, 0, 37, 0, "late: items 21(c) and 22"},
		}},
		{"window", func(*returned) func(*mpi.Comm) error { return windowProgram }, map[string]killRow{
			"mem": {0, 0, 0, 0, ""},
			// The dead origin's Put DMA runs on to its end.
			"meiko/lowlatency": {0, 60, 6, 0, "drains: item 22; late: item 21(c)"},
			"cluster/shm":      {0, 0, 61, 0, "late: item 21(c)"},
			// The victim parks for good in its fence's write interleave.
			"cluster/tcp": {28, 1, 35, 0, "deadlocks and drains: items 22 and 26; late: item 21(c)"},
			"cluster/udp": {0, 99, 55, 0, "drains: items 9 and 21; late: item 21(c)"},
			// Not traced to a cause: the messages program drains on time here.
			"cluster/unet": {0, 52, 40, 0, "drains: items 21 and 22; late: items 21(c) and 22"},
		}},
	}
	for _, prog := range programs {
		for _, name := range []string{"mem", "meiko/lowlatency", "cluster/shm", "cluster/tcp", "cluster/udp", "cluster/unet"} {
			s := registry.SpecFor(name)
			s.Ranks = 3
			base, err := registry.Run(s, prog.body(new(returned)))
			if err != nil {
				t.Fatalf("%s on %s fault-free: %v", prog.name, name, err)
			}
			var got killRow
			for i := 1; i < 100; i++ {
				at := base.MaxRankElapsed * sim.Duration(i) / 100
				s.Kills = fmt.Sprintf("1@%dns", at.Nanoseconds())
				w, err := registry.Build(s)
				if err != nil {
					t.Fatal(err)
				}
				var ret returned
				rep, err := mpi.Launch(w, prog.body(&ret))
				if ret.written() {
					got.written++
				}
				var dl *sim.DeadlockError
				if errors.As(err, &dl) {
					got.deadlocks++
					continue
				}
				if rep.Errs[0] != nil || rep.Errs[2] != nil {
					t.Errorf("%s on %s, kill at %v: survivors returned %v and %v", prog.name, name, at, rep.Errs[0], rep.Errs[2])
				}
				if rep.Elapsed > max(rep.RankElapsed[0], rep.RankElapsed[2])+time.Millisecond {
					got.drains++
				}
				if rep.RankElapsed[1] > at+time.Microsecond {
					got.late++
				}
			}
			if want := prog.pinned[name]; got.deadlocks != want.deadlocks || got.drains != want.drains || got.late != want.late || got.written != want.written {
				t.Errorf("%s on %s: %d deadlocks, %d late drains, %d victims running on, %d returned buffers written; pinned %d, %d, %d, %d (owner: %s)",
					prog.name, name, got.deadlocks, got.drains, got.late, got.written, want.deadlocks, want.drains, want.late, want.written, want.owner)
			}
		}
	}
}
