package bench

import (
	"encoding/json"
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
			single, _, err := collAtScale(backend, op, 16, 0, 256)
			if err != nil {
				t.Fatalf("%s %s single: %v", backend, op, err)
			}
			shard, _, err := collAtScale(backend, op, 16, 16, 256)
			if err != nil {
				t.Fatalf("%s %s sharded: %v", backend, op, err)
			}
			for i := range single {
				if single[i] != shard[i] {
					t.Fatalf("%s %s: rank %d finished at %v on single, %v on sharded", backend, op, i, single[i], shard[i])
				}
			}
		}
	}
}

func TestCheckScaleGate(t *testing.T) {
	good := ScaleReport{
		SchemaVersion: scaleSchemaVersion,
		MaxProcs:      1,
		// The sharded-over-single speedup is recorded, not floored: the two
		// run the same proc switch, so a ratio near 1 is a clean report.
		Points: []ScalePoint{
			{Ranks: 64, Identical: true, SingleEvPerSec: 2.5e6, ShardEvPerSec: 3e6, Speedup: 1.2, ParallelEvPerSec: 3e6, ParallelSpeedup: 1},
			{Ranks: 1024, Identical: true, SingleEvPerSec: 2.5e6, ShardEvPerSec: 3e6, Speedup: 1.2, ParallelEvPerSec: 3e6, ParallelSpeedup: 1},
		},
		Collectives: []ScaleCollPoint{
			{Op: "barrier", Ranks: 1024, Identical: true}, // backendless = mem (schema v0)
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

	// The parallel executor must not run meaningfully slower than the
	// sequential sharded kernel, on any machine.
	bad = good
	bad.Points = append([]ScalePoint(nil), good.Points...)
	bad.Points[1].ParallelEvPerSec = 3e6 * 0.8
	bad.Points[1].ParallelSpeedup = 0.8
	requireFail(t, gate(t, "scale", bad, nil), "slower than sequential")

	// Baseline comparisons are exact on the deterministic fields and blind
	// to host speed: an events/sec drop and a baseline-only 16384 point pass,
	// one event more or less does not.
	base := good
	base.Points = append([]ScalePoint(nil), good.Points...)
	base.Points = append(base.Points, ScalePoint{Ranks: 16384, Identical: true, SingleEvPerSec: 2.5e6, ShardEvPerSec: 3e6, Speedup: 1.2})
	cur := good
	cur.Points = append([]ScalePoint(nil), good.Points...)
	cur.Points[1].ShardEvPerSec = 3e6 * 0.8
	cur.Points[1].SingleEvPerSec = 2.5e6 * 0.8
	cur.Points[1].ParallelEvPerSec = 3e6 * 0.8
	if fails := gate(t, "scale", cur, base); len(fails) != 0 {
		t.Fatalf("a host-speed drop tripped the gate: %v", fails)
	}
	for field, edit := range map[string]func(*ScalePoint){
		"events":             func(p *ScalePoint) { p.Events++ },
		"virtual_us":         func(p *ScalePoint) { p.VirtualUs -= 0.5 },
		"epochs":             func(p *ScalePoint) { p.Epochs++ },
		"stalls":             func(p *ScalePoint) { p.Stalls++ },
		"routed":             func(p *ScalePoint) { p.Routed++ },
		"mailbox_high_water": func(p *ScalePoint) { p.MailboxHighWater++ },
	} {
		cur.Points = append([]ScalePoint(nil), good.Points...)
		edit(&cur.Points[1])
		requireFail(t, gate(t, "scale", cur, base), "point ranks=1024: "+field)
	}
	cur = good
	cur.Collectives = append([]ScaleCollPoint(nil), good.Collectives...)
	cur.Collectives[1].VirtualUs++
	requireFail(t, gate(t, "scale", cur, base), "collective meiko/lowlatency barrier ranks=256 bytes=0: virtual_us")
	// The baseline's backendless (schema v0) point keys as mem.
	cur.Collectives = append([]ScaleCollPoint(nil), good.Collectives...)
	cur.Collectives[0] = ScaleCollPoint{Backend: "mem", Op: "barrier", Ranks: 1024, Identical: true, VirtualUs: 1}
	requireFail(t, gate(t, "scale", cur, base), "collective mem barrier ranks=1024 bytes=0: virtual_us")

	cur = good
	base.LaneAllocsPerOp = 0
	cur.LaneAllocsPerOp = 0
	base2 := base
	cur2 := cur
	cur2.LaneAllocsPerOp = 0
	base2.LaneAllocsPerOp = -1 // any increase over baseline fails
	requireFail(t, gate(t, "scale", cur2, base2), "exceeds baseline")
}

func TestScaleReportRoundTrip(t *testing.T) {
	rep := ScaleReport{
		SchemaVersion:   scaleSchemaVersion,
		MaxProcs:        4,
		Points:          []ScalePoint{{Ranks: 64, Lanes: 64, Events: 7744, Identical: true, Speedup: 2.5}},
		Collectives:     []ScaleCollPoint{{Backend: "meiko/lowlatency", Op: "bcast", Ranks: 1024, Bytes: 1024, Identical: true}},
		LaneAllocsPerOp: 0,
	}
	// What the gate decides about a report survives the record encoding.
	if got, want := gate(t, "scale", rep, rep), checkScale(rep, &rep); !reflect.DeepEqual(got, want) {
		t.Fatalf("gate through the record = %v, in memory = %v", got, want)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back ScaleReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != 1 || back.Points[0].Ranks != 64 || len(back.Collectives) != 1 {
		t.Fatalf("round trip mangled the report: %+v", back)
	}
	if back.SchemaVersion != scaleSchemaVersion || back.MaxProcs != 4 || collBackend(back.Collectives[0]) != "meiko/lowlatency" {
		t.Fatalf("round trip dropped v1 fields: %+v", back)
	}
	// A schema-v0 (mem-only) baseline still parses: missing fields default
	// and backendless collective points read as mem.
	v0 := []byte(`{"points":[{"ranks":1024}],"collectives":[{"op":"barrier","ranks":1024,"identical":true}],"lane_allocs_per_op":0}`)
	if _, err := suiteNamed(t, "scale").Check(v0, v0); err != nil {
		t.Fatalf("v0 baseline rejected: %v", err)
	}
	var old ScaleReport
	if err := json.Unmarshal(v0, &old); err != nil {
		t.Fatal(err)
	}
	if old.SchemaVersion != 0 || collBackend(old.Collectives[0]) != "mem" {
		t.Fatalf("v0 baseline misparsed: %+v", old)
	}
}
