package bench

import (
	"reflect"
	"testing"
)

func TestScaleWorldKernelsAgree(t *testing.T) {
	single := dissemWorld(64, 0, 4, false)
	seq := dissemWorld(64, 64, 4, false)
	par := dissemWorld(64, 64, 4, true)
	if single.events != seq.events || seq.events != par.events {
		t.Fatalf("event counts diverged: single=%d seq=%d par=%d", single.events, seq.events, par.events)
	}
	if single.virtual != seq.virtual || seq.virtual != par.virtual {
		t.Fatalf("virtual times diverged: single=%v seq=%v par=%v", single.virtual, seq.virtual, par.virtual)
	}
	if seq.stats.Routed == 0 {
		t.Fatal("sharded run routed no cross-lane envelopes")
	}
}

func TestScaleCollectiveParitySmall(t *testing.T) {
	for _, backend := range []string{"mem", "meiko/lowlatency", "cluster/tcp"} {
		for _, op := range []string{"barrier", "bcast", "allreduce"} {
			p, err := collAtScale(&runner{}, backend, op, 16, 256)
			if err != nil {
				t.Fatalf("%s %s: %v", backend, op, err)
			}
			if !p.Identical || p.VirtualUs <= 0 {
				t.Fatalf("%s %s: the sharded kernel did not reproduce every rank's finish: %+v", backend, op, p)
			}
		}
	}
}

func TestCheckScaleGate(t *testing.T) {
	good := ScaleReport{
		Points: []ScalePoint{
			{Ranks: 64, Identical: true},
			{Ranks: 1024, Identical: true},
		},
		Collectives: []ScaleCollPoint{
			{Backend: "mem", Op: "barrier", Ranks: 1024, Identical: true},
			{Backend: "meiko/lowlatency", Op: "barrier", Ranks: 256, Identical: true},
			{Backend: "cluster/tcp", Op: "barrier", Ranks: 64, Identical: true},
		},
	}
	if fails := gate(t, "scale", good, nil); len(fails) != 0 {
		t.Fatalf("clean report failed the gate: %v", fails)
	}

	bad := good
	bad.LaneAllocsPerOp = 1
	requireFail(t, gate(t, "scale", bad, nil), "allocates")

	bad = good
	bad.Points = append([]ScalePoint(nil), good.Points...)
	bad.Points[1].Identical = false
	requireFail(t, gate(t, "scale", bad, nil), "diverged")

	bad = good
	bad.Points = good.Points[:1] // no >=1024-rank point
	requireFail(t, gate(t, "scale", bad, nil), "no >=1024-rank point")

	bad = good
	bad.Collectives = append([]ScaleCollPoint(nil), good.Collectives...)
	bad.Collectives[0].Identical = false
	requireFail(t, gate(t, "scale", bad, nil), "finish times diverged")

	// A backend silently dropping out of the collective sweep fails.
	bad = good
	bad.Collectives = good.Collectives[:2] // no cluster points
	requireFail(t, gate(t, "scale", bad, nil), "no cluster/tcp collective points")

	// Against a baseline, every point is compared exactly: a rank count
	// that left the sweep is one finding, and so is one event more or less.
	if fails := gate(t, "scale", good, good); len(fails) != 0 {
		t.Fatalf("clean report failed against itself: %v", fails)
	}
	base := good
	base.Points = append(append([]ScalePoint(nil), good.Points...), ScalePoint{Ranks: 16384, Identical: true})
	exactly(t, gate(t, "scale", good, base), "scale/16384: in the baseline, missing from the report")
	cur := good
	for field, edit := range map[string]func(*ScalePoint){
		`"events":1`:             func(p *ScalePoint) { p.Events++ },
		`"virtual_us":-0.5`:      func(p *ScalePoint) { p.VirtualUs -= 0.5 },
		`"epochs":1`:             func(p *ScalePoint) { p.Epochs++ },
		`"stalls":1`:             func(p *ScalePoint) { p.Stalls++ },
		`"routed":1`:             func(p *ScalePoint) { p.Routed++ },
		`"mailbox_high_water":1`: func(p *ScalePoint) { p.MailboxHighWater++ },
	} {
		cur.Points = append([]ScalePoint(nil), good.Points...)
		edit(&cur.Points[1])
		exactly(t, gate(t, "scale", cur, good), "scale/1024: {", field)
	}
	cur = good
	cur.Collectives = append([]ScaleCollPoint(nil), good.Collectives...)
	cur.Collectives[1].VirtualUs++
	exactly(t, gate(t, "scale", cur, good), "scale/meiko-lowlatency/barrier/256: {", `"virtual_us":1`)
}

// What the gate decides about a report survives the record encoding.
func TestScaleReportRoundTrip(t *testing.T) {
	rep := ScaleReport{
		Points:      []ScalePoint{{Ranks: 64, Lanes: 64, Events: 7744, Identical: true}},
		Collectives: []ScaleCollPoint{{Backend: "meiko/lowlatency", Op: "bcast", Ranks: 1024, Bytes: 1024, Identical: true}},
	}
	if got, want := gate(t, "scale", rep, rep), checkScale(rep); !reflect.DeepEqual(got, want) {
		t.Fatalf("gate through the record = %v, in memory = %v", got, want)
	}
}
