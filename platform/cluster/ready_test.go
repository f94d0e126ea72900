package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/mpi"
	"repro/platform/registry"
)

func (r readySet) has(i int) bool { return r[i>>6]>>(i&63)&1 == 1 }

// One pass of the ready walk must visit exactly the peers the linear
// (rr+i)%size scan it replaced would have, in the same order — including
// peers that become ready mid-pass, which the scan serves only when its
// cursor has not reached them yet — at sizes on both sides of a word
// boundary.
func TestReadyWalkMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 63, 64, 65, 200} {
		for trial := 0; trial < 300; trial++ {
			rr := rng.Intn(n)
			ref := make([]bool, n)
			set := make(readySet, (n+63)/64)
			for i := range ref {
				if rng.Intn(5) == 0 {
					ref[i] = true
					set.set(i)
				}
			}
			// What a visit does, fixed up front so both walks see the same:
			// arrivals on other peers while it parses, and whether it drains.
			arrive := make([][]int, n)
			drain := make([]bool, n)
			for j := range arrive {
				for k := rng.Intn(3); k > 0; k-- {
					arrive[j] = append(arrive[j], rng.Intn(n))
				}
				drain[j] = rng.Intn(3) > 0
			}

			var want, got []int
			for i := 0; i < n; i++ {
				j := (rr + i) % n
				if !ref[j] {
					continue
				}
				want = append(want, j)
				for _, x := range arrive[j] {
					ref[x] = true
				}
				if drain[j] {
					ref[j] = false
				}
			}
			for off := set.after(rr, 0, n); off < n; off = set.after(rr, off+1, n) {
				j := (rr + off) % n
				got = append(got, j)
				for _, x := range arrive[j] {
					set.set(x)
				}
				if drain[j] {
					set.clear(j)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("size %d rr %d: walk visited %v, linear scan %v", n, rr, got, want)
			}
			for j, r := range ref {
				if has := set.has(j); has != r {
					t.Fatalf("size %d rr %d: peer %d ready=%v after the walk, scan says %v", n, rr, j, has, r)
				}
			}
			if some := set.after(0, 0, n) < n; some != slices.Contains(ref, true) {
				t.Fatalf("size %d: after(0, 0) finds a ready peer = %v on %v", n, some, ref)
			}
		}
	}
}

// Seven ranks fire eager and rendezvous messages at rank 0 at once, so its
// polls find several connections readable, messages queued behind each
// other on one stream, and payloads that arrive a window at a time.
func TestReadySetTracksReadableConns(t *testing.T) {
	const msgs = 12
	sizes := []int{1, 1024, DefaultEager, 3 * DefaultCredit}
	polls := 0
	_, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 8, Transport: "tcp", Network: "atm"}, func(c *mpi.Comm) error {
		eng := c.Endpoint().(*core.Engine)
		eng.SetTransport(pollChecker{eng.Transport().(*transport), t, "tcp", &polls})
		if c.Rank() != 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(0, i, make([]byte, sizes[(i+c.Rank())%len(sizes)])); err != nil {
					return err
				}
			}
			return nil
		}
		buf := make([]byte, 3*DefaultCredit)
		for i := 0; i < msgs*(c.Size()-1); i++ {
			if _, err := c.Recv(mpi.AnySource, mpi.AnyTag, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if polls < msgs*7 {
		t.Fatalf("only %d polls checked", polls)
	}
}
