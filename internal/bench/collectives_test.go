package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// eagerCliff is the one mechanism the size relation is allowed to break on:
// cluster/shm's 16 KiB eager limit, where the eager copy of a large message
// costs more than the rendezvous that replaces it above the limit. ROADMAP
// item 5 derives the limit from the cost model, and the cells must then
// read in order.
const eagerCliff = "cluster/shm eager cliff at 16 KiB (ROADMAP item 5)"

// sizeRelationAllowed lists every adjacent-size step of the committed
// collectives record that may get faster with more bytes, keyed
// "backend op series from→to", with the mechanism that owns it.
var sizeRelationAllowed = map[string]string{
	"cluster/shm bcast binomial 16384→65536":        eagerCliff,
	"cluster/shm bcast linear 16384→65536":          eagerCliff,
	"cluster/shm allreduce rdbl 16384→65536":        eagerCliff,
	"cluster/shm allreduce rsag 65536→131072":       eagerCliff,
	"cluster/shm allreduce rsag 131072→262144":      eagerCliff,
	"cluster/shm allgather ring 16384→65536":        eagerCliff,
	"cluster/shm alltoall linear-shift 16384→65536": eagerCliff,
	"cluster/shm alltoall pairwise 16384→65536":     eagerCliff,
}

// The size relation (ROADMAP item 19, R1) over the committed record, with
// no simulation: for a fixed backend, collective and algorithm, time does
// not fall as the payload grows. A step that does is either on the
// allowlist above, naming its mechanism, or a defect; an allowlisted step
// that reads in order again fails too, so the fix clears the list.
func TestCollectivesTimeGrowsWithBytes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCH_collectives.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep CollectivesReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	pairs, seen := 0, map[string]bool{}
	for _, b := range rep.Backends {
		for _, op := range b.Ops {
			for _, s := range op.Series {
				for i := 1; i < len(s.Points); i++ {
					lo, hi := s.Points[i-1], s.Points[i]
					pairs++
					if hi.Y >= lo.Y {
						continue
					}
					key := fmt.Sprintf("%s %s %s %d→%d", b.Backend, op.Op, s.Name, lo.X, hi.X)
					seen[key] = true
					if _, ok := sizeRelationAllowed[key]; !ok {
						t.Errorf("%s: %.1f µs at %d B but %.1f µs at %d B, and no mechanism is listed for it",
							key, lo.Y, lo.X, hi.Y, hi.X)
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("the committed record has no adjacent-size pairs")
	}
	for key, why := range sizeRelationAllowed {
		if !seen[key] {
			t.Errorf("%s no longer gets faster with more bytes: take it off the allowlist (%s)", key, why)
		}
	}
	t.Logf("%d adjacent-size pairs, %d getting faster with more bytes", pairs, len(seen))
}
