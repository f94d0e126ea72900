package registry_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

// canary is what a rank's body holds: collected once nothing reaches the
// body. 64 B, so the tiny allocator never batches it with anything else.
type canary struct{ b [64]byte }

// launchWithCanary runs a 2-rank exchange on w — eager and rendezvous
// Sendrecvs, then an allreduce — with a body whose closure alone holds a
// canary, and returns a channel its finalizer closes.
func launchWithCanary(t *testing.T, w *mpi.World) <-chan struct{} {
	collected := make(chan struct{})
	can := &canary{}
	runtime.SetFinalizer(can, func(*canary) { close(collected) })
	_, err := mpi.Launch(w, func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		for _, n := range []int{64, 4 << 10, 64, 4 << 10} {
			out, in := make([]byte, n), make([]byte, n)
			out[0] = can.b[0]
			if _, err := c.Sendrecv(peer, 0, out, peer, 0, in); err != nil {
				return err
			}
		}
		sum := []float64{0}
		return c.AllreduceFloat64(mpi.SumFloat64, []float64{1}, sum)
	})
	if err != nil {
		t.Fatal(err)
	}
	return collected
}

// collectedSoon reports whether collected closes within a few collections.
func collectedSoon(collected <-chan struct{}) bool {
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return true
		case <-time.After(5 * time.Millisecond):
		}
	}
	return false
}

// A world still reachable after Launch holds no finished rank's coroutine.
// A coroutine keeps its body's closure, and through it everything the body
// captured (a workload's whole trace log), so an engine, a wire or a relay
// record that keeps a *sim.Proc past the call that needed it keeps them
// all alive for as long as the world is. On tcp over the Ethernet a 4 KiB
// frame spans three segments, so a rank parked in Wait also parks on its
// connection mid-frame, with the kernel running its receive's steps.
func TestWorldHoldsNoFinishedBody(t *testing.T) {
	for _, name := range []string{"mem", "meiko/lowlatency", "meiko/mpich", "cluster/shm", "cluster/tcp", "cluster/tcp/eth", "cluster/udp", "cluster/unet"} {
		s := registry.SpecFor(strings.TrimSuffix(name, "/eth"))
		if strings.HasSuffix(name, "/eth") {
			s.Network = "eth"
		}
		s.Ranks = 2
		w, err := registry.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		if !collectedSoon(launchWithCanary(t, w)) {
			t.Errorf("%s: the world still holds a finished rank's body", name)
		}
		runtime.KeepAlive(w)
	}
}

// A deadlocked world frees its rank bodies. Rank 0 parks for good in a
// 4 KiB Recv, or in a 4 KiB Sendrecv, from rank 1, which returns at once;
// Launch reports the deadlock and stops rank 0's proc. The proc stays
// named where it waited (the engine's Cond, a relay's record), so a proc
// that kept its coroutine past the stop would keep the body, and the
// canary only the body's closure holds, for as long as the world lives.
func TestDeadlockedWorldHoldsNoBody(t *testing.T) {
	for _, name := range []string{"mem", "meiko/lowlatency", "cluster/tcp"} {
		for _, pair := range []bool{false, true} {
			s := registry.SpecFor(name)
			s.Ranks = 2
			w, err := registry.Build(s)
			if err != nil {
				t.Fatal(err)
			}
			collected := make(chan struct{})
			can := &canary{}
			runtime.SetFinalizer(can, func(*canary) { close(collected) })
			_, err = mpi.Launch(w, func(c *mpi.Comm) error {
				if c.Rank() == 1 {
					return nil
				}
				buf := make([]byte, 4<<10)
				buf[0] = can.b[0]
				if pair {
					_, err := c.Sendrecv(1, 0, make([]byte, 4<<10), 1, 0, buf)
					return err
				}
				_, err := c.Recv(1, 0, buf)
				return err
			})
			if err == nil {
				t.Fatalf("%s Sendrecv %v: rank 0's receive from a finished rank returned", name, pair)
			}
			if !collectedSoon(collected) {
				t.Errorf("%s Sendrecv %v: the deadlocked world still holds rank 0's body", name, pair)
			}
			runtime.KeepAlive(w)
		}
	}
}
