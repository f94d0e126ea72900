package registry_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/mpi"
	"repro/platform/registry"
)

// pingPong runs one 1-byte (eager) and one 16 KiB (rendezvous on every
// backend) round trip between ranks 0 and 1.
func pingPong(c *mpi.Comm) error {
	for _, n := range []int{1, 16 << 10} {
		buf := make([]byte, n)
		if c.Rank() == 0 {
			if err := c.Send(1, 1, buf); err != nil {
				return err
			}
			if _, err := c.Recv(1, 2, buf); err != nil {
				return err
			}
			continue
		}
		if _, err := c.Recv(0, 1, buf); err != nil {
			return err
		}
		if err := c.Send(0, 2, buf); err != nil {
			return err
		}
	}
	return nil
}

// parentBooks is what Report.Acct.Time and Count read, and each rank's
// finish time, for pingPong on every backend when every rank still booked
// into two string maps and the media into nothing. Generated from that
// tree, not from this one, except cluster/udp's finish times, which moved
// when RUDP's timers began to cover a frame's bytes (ROADMAP item 3). Its
// rank 0 sends its last frame to a rank whose body has returned; that rank
// is closed, so it acks the frame and nothing is retransmitted.
var parentBooks = map[string]struct {
	time    map[string]sim.Duration
	count   map[string]int64
	elapsed []sim.Duration
}{
	"cluster/shm": {
		time:    map[string]sim.Duration{"copy": 1974200, "match": 144000, "overhead": 16000, "protocol": 2000},
		count:   map[string]int64{"match.posted-max": 1, "pool.bytes-recycled": 32896, "pool.hit": 2, "pool.miss": 2, "recv": 4, "send": 4},
		elapsed: []sim.Duration{2112969, 1091045},
	},
	"cluster/tcp": {
		time:    map[string]sim.Duration{"copy": 1974200, "match": 144000, "overhead": 80000, "read-data": 2476200, "read-env": 432200, "read-type": 425300},
		count:   map[string]int64{"eager": 4, "match.posted-max": 1, "pool.bytes-recycled": 98688, "pool.hit": 4, "pool.miss": 6, "read-env": 5, "read-type": 5, "recv": 4, "send": 4},
		elapsed: []sim.Duration{12094056, 8367297},
	},
	"cluster/udp": {
		time:    map[string]sim.Duration{"copy": 1974200, "match": 144000, "overhead": 80000},
		count:   map[string]int64{"eager": 4, "match.posted-max": 1, "recv": 4, "send": 4},
		elapsed: []sim.Duration{12186302, 8117985},
	},
	"cluster/unet": {
		time:    map[string]sim.Duration{"copy": 1974200, "match": 144000, "overhead": 80000},
		count:   map[string]int64{"eager": 4, "match.posted-max": 1, "recv": 4, "send": 4},
		elapsed: []sim.Duration{9959856, 6048160},
	},
	"meiko/lowlatency": {
		time:    map[string]sim.Duration{"copy": 2200, "match": 120000, "overhead": 84000, "protocol": 74000},
		count:   map[string]int64{"eager": 2, "match.posted-max": 1, "pool.bytes-recycled": 32896, "pool.hit": 2, "pool.miss": 2, "recv": 4, "rndv": 2, "send": 4},
		elapsed: []sim.Duration{1069320, 1064320},
	},
	"meiko/mpich": {
		time:    map[string]sim.Duration{"overhead": 316000},
		count:   map[string]int64{"recv": 4, "send": 4},
		elapsed: []sim.Duration{1281120, 1237120},
	},
	"mem": {
		time:    map[string]sim.Duration{},
		count:   map[string]int64{"match.posted-max": 1, "pool.bytes-recycled": 32896, "pool.hit": 2, "pool.miss": 2, "recv": 4, "send": 4},
		elapsed: []sim.Duration{8000, 7000},
	},
}

// The string view is built from the arrays on read: every name and value
// the maps held before must read the same, and the only names it may add
// are the media's own categories.
func TestLedgerViewParity(t *testing.T) {
	names := registry.Names()
	sort.Strings(names)
	if len(names) != len(parentBooks) {
		t.Fatalf("backends %v, parity table has %d", names, len(parentBooks))
	}
	media := map[string]bool{"wire": true, "syscall": true, "kernel": true, "sync": true}
	for _, name := range names {
		want := parentBooks[name]
		spec := registry.SpecFor(name)
		spec.Ranks = 2
		rep, err := registry.Run(spec, pingPong)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, d := range rep.RankElapsed {
			if d != want.elapsed[i] {
				t.Errorf("%s: rank %d finished at %d, want %d", name, i, d, want.elapsed[i])
			}
		}
		for k, d := range rep.Acct.Time {
			if w, ok := want.time[k]; ok && d != w || !ok && !media[k] {
				t.Errorf("%s: Time[%q] = %d, want %d", name, k, d, w)
			}
		}
		for k, w := range want.time {
			if rep.Acct.Time[k] != w {
				t.Errorf("%s: Time[%q] = %d, want %d", name, k, rep.Acct.Time[k], w)
			}
		}
		if len(rep.Acct.Count) != len(want.count) {
			t.Errorf("%s: Count = %v, want %v", name, rep.Acct.Count, want.count)
		}
		for k, w := range want.count {
			if rep.Acct.Count[k] != w {
				t.Errorf("%s: Count[%q] = %d, want %d", name, k, rep.Acct.Count[k], w)
			}
		}
	}
}

// exercise is pingPong between ranks 0 and 1, then a broadcast (the
// hardware one on meiko/lowlatency), an allreduce and a barrier over the
// world.
func exercise(c *mpi.Comm) error {
	if c.Rank() < 2 {
		if err := pingPong(c); err != nil {
			return err
		}
	}
	buf := make([]byte, 256)
	if err := c.Bcast(0, buf); err != nil {
		return err
	}
	if err := c.Allreduce(mpi.BOr, buf, make([]byte, len(buf))); err != nil {
		return err
	}
	return c.Barrier()
}

// reconcile checks the ledger's rule on every rank: the time booked on the
// rank's own clock, parked time included, is exactly its elapsed time.
// Time recorded beside the clock (wire, Elan occupancy, the read spans)
// is not part of that sum.
func reconcile(t *testing.T, name string, rep *mpi.Report) {
	t.Helper()
	for i, a := range rep.RankAccts {
		var sum sim.Duration
		for _, d := range a.Spent {
			sum += d
		}
		if sum != rep.RankElapsed[i] {
			t.Errorf("%s: rank %d booked %d ns on its clock (%d parked), finished at %d", name, i, sum, a.Spent[sim.Parked], rep.RankElapsed[i])
		}
	}
}

func TestLedgerReconcilesEveryBackend(t *testing.T) {
	for _, name := range registry.Names() {
		for _, ranks := range []int{2, 4} {
			spec := registry.SpecFor(name)
			spec.Ranks = ranks
			rep, err := registry.Run(spec, exercise)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			reconcile(t, name, rep)
		}
	}
}

// The arrays are lane-local: eight lanes on threads, under the race
// detector in CI, each booking only its own ranks.
func TestLedgerReconcilesOnParallelLanes(t *testing.T) {
	rep, err := registry.Run(registry.Spec{Platform: "mem", Ranks: 16, Lanes: 8, Parallel: true}, exercise)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shard == nil || rep.Shard.Lanes != 8 {
		t.Fatalf("ran on %+v, want 8 shard lanes", rep.Shard)
	}
	reconcile(t, "mem lanes=8", rep)
}

// The media join the ledger: the socket stacks book syscall and kernel
// time, their wires wire time, and the Meiko its injection port as wire
// and its Elan as sync. Wire time is the device's, never the rank clock's.
func TestMediaBook(t *testing.T) {
	for name, cats := range map[string]string{
		"cluster/tcp":      "wire syscall kernel",
		"cluster/udp":      "wire syscall kernel",
		"meiko/lowlatency": "wire sync",
	} {
		spec := registry.SpecFor(name)
		spec.Ranks = 2
		rep, err := registry.Run(spec, pingPong)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range strings.Fields(cats) {
			if rep.Acct.Time[c] == 0 {
				t.Errorf("%s: nothing booked as %s: %v", name, c, rep.Acct.Time)
			}
		}
		for i, a := range rep.RankAccts {
			if a.Spent[sim.Wire] != 0 || a.Booked[sim.Wire] == 0 {
				t.Errorf("%s: rank %d wire %d on its clock, %d beside it", name, i, a.Spent[sim.Wire], a.Booked[sim.Wire])
			}
		}
	}
}
