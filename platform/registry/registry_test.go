package registry_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/mpi"
	"repro/platform/registry"

	_ "repro/platform/cluster"
	_ "repro/platform/meiko"
)

// The full backend set every entrypoint may name. A newly registered
// backend extends this list and is picked up by the conformance matrix
// automatically.
var wantBackends = []string{
	"cluster/shm", "cluster/tcp", "cluster/udp", "cluster/unet",
	"meiko/lowlatency", "meiko/mpich",
	"mem",
}

func TestNamesComplete(t *testing.T) {
	got := registry.Names()
	for _, want := range wantBackends {
		found := false
		for _, name := range got {
			if name == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("backend %q not registered (have %v)", want, got)
		}
	}
}

func TestSpecKeyRoundTrip(t *testing.T) {
	for _, name := range registry.Names() {
		if key := registry.SpecFor(name).Key(); key != name {
			t.Errorf("SpecFor(%q).Key() = %q", name, key)
		}
	}
}

func TestSpecKeyDefaults(t *testing.T) {
	if k := (registry.Spec{Platform: "meiko"}).Key(); k != "meiko/lowlatency" {
		t.Errorf("meiko default key = %q", k)
	}
	if k := (registry.Spec{Platform: "cluster"}).Key(); k != "cluster/tcp" {
		t.Errorf("cluster default key = %q", k)
	}
}

func TestBuildUnknownListsBackends(t *testing.T) {
	_, err := registry.Build(registry.Spec{Platform: "hypercube", Ranks: 2})
	if err == nil {
		t.Fatal("unknown backend must fail")
	}
	for _, want := range wantBackends {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not list %q", err, want)
		}
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	if _, err := registry.Build(registry.Spec{Platform: "meiko"}); err == nil {
		t.Error("zero ranks must fail")
	}
	if _, err := registry.Build(registry.Spec{Platform: "cluster", Ranks: 2, Network: "token-ring"}); err == nil {
		t.Error("unknown network must fail")
	}
	if _, err := registry.Build(registry.Spec{Platform: "cluster", Ranks: 2, Costs: 42}); err == nil {
		t.Error("wrong costs type must fail")
	}
	if _, err := registry.Build(registry.Spec{Platform: "cluster", Transport: "unet", Network: "eth", Ranks: 2}); err == nil {
		t.Error("unet over ethernet must fail")
	}
}

// A knob set on a platform that does not read it is an error naming the
// field, for every (platform, foreign field) pair — never a silent drop.
// The table below is the test's own copy of who reads what; a Spec field it
// does not list must be one that means the same on every platform.
func TestForeignKnobsAreLoud(t *testing.T) {
	readBy := map[string]string{
		"Impl": "meiko", "EnvelopeSlots": "meiko",
		"Costs": "meiko cluster", "Credit": "mem cluster",
		"Transport": "cluster", "Network": "cluster", "TCPNagle": "cluster",
		"LossRate": "cluster", "Delay": "cluster", "Jitter": "cluster", "Reorder": "cluster",
		"Duplicate": "cluster", "DropEveryN": "cluster", "Partition": "cluster", "FaultSeed": "cluster",
	}
	everywhere := strings.Fields("Platform Ranks Lanes Parallel Eager Seed Coll Kills Workload")
	typ := reflect.TypeOf(registry.Spec{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		owners, isKnob := readBy[name]
		if !isKnob {
			if !slices.Contains(everywhere, name) {
				t.Errorf("Spec.%s is in neither table: say which platforms read it", name)
			}
			continue
		}
		for _, platform := range []string{"mem", "meiko", "cluster"} {
			spec := registry.Spec{Platform: platform, Ranks: 2}
			switch fv := reflect.ValueOf(&spec).Elem().Field(i); fv.Kind() {
			case reflect.String:
				fv.SetString("x")
			case reflect.Bool:
				fv.SetBool(true)
			case reflect.Float64:
				fv.SetFloat(0.5)
			case reflect.Interface:
				fv.Set(reflect.ValueOf(42))
			default:
				fv.SetInt(1)
			}
			_, err := registry.Build(spec)
			foreign := err != nil && strings.Contains(err.Error(), "Spec."+name+" is set") &&
				strings.HasPrefix(err.Error(), `backend "`+spec.Key()+`": `)
			if want := !strings.Contains(owners, platform); foreign != want {
				t.Errorf("%s with %s set: foreign-knob error = %v, want %v (err: %v)", platform, name, foreign, want, err)
			}
		}
	}
}

// One front door: the platform packages register builders and export no
// second way to a world — no function that returns a *mpi.World, no
// options struct beside registry.Spec.
func TestSingleFrontDoor(t *testing.T) {
	files, err := filepath.Glob("../*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, "../registry/") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Type.Results == nil {
					return false
				}
				for _, res := range d.Type.Results.List {
					if star, ok := res.Type.(*ast.StarExpr); ok {
						if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "World" {
							t.Errorf("%s: exported %s returns a *mpi.World; worlds come from registry.Build", fset.Position(d.Pos()), d.Name.Name)
						}
					}
				}
				return false
			case *ast.TypeSpec:
				if _, ok := d.Type.(*ast.StructType); ok && d.Name.Name == "Config" {
					t.Errorf("%s: a platform Config duplicates registry.Spec", fset.Position(d.Pos()))
				}
			}
			return true
		})
	}
}

// The matcher keys a message by tag in 32 bits and source in 16 with -1 as
// either wildcard, so a tag or a world outside what the key tells apart
// must be a typed error at the API, not a message in the wrong bin: tag
// 2³²−1 would read as AnyTag, rank 65 535 as AnySource. Everything inside
// the limits keeps working, AnyTag on the receiving side included.
func TestMatchKeyLimitsAreTypedErrors(t *testing.T) {
	for _, ranks := range []int{core.MaxRanks + 1, 1 << 20} {
		if _, err := registry.Build(registry.Spec{Platform: "mem", Ranks: ranks}); err == nil || !strings.Contains(err.Error(), "Ranks") {
			t.Errorf("a %d-rank world: %v, want a Ranks error", ranks, err)
		}
	}
	over, wrapsToAny := core.MaxTag, core.MaxTag
	over, wrapsToAny = over+1, 2*wrapsToAny+1
	buf := make([]byte, 1)
	cases := []struct {
		name string
		call func(c *mpi.Comm, tag int) error
		tags []int
		ok   bool
	}{
		{"send", func(c *mpi.Comm, tag int) error { return c.Send(0, tag, nil) }, []int{0, 7, core.MaxTag}, true},
		{"send", func(c *mpi.Comm, tag int) error { return c.Send(0, tag, nil) }, []int{mpi.AnyTag, -2, over, wrapsToAny}, false},
		{"isend", func(c *mpi.Comm, tag int) error { _, err := c.Isend(0, tag, nil); return err }, []int{mpi.AnyTag, over}, false},
		{"probe", func(c *mpi.Comm, tag int) error { _, err := c.Probe(0, tag); return err }, []int{7, mpi.AnyTag}, true},
		{"probe", func(c *mpi.Comm, tag int) error { _, err := c.Probe(0, tag); return err }, []int{-2, over}, false},
		{"iprobe", func(c *mpi.Comm, tag int) error { _, _, err := c.Iprobe(0, tag); return err }, []int{7, mpi.AnyTag}, true},
		{"iprobe", func(c *mpi.Comm, tag int) error { _, _, err := c.Iprobe(0, tag); return err }, []int{-2, wrapsToAny}, false},
		{"recv", func(c *mpi.Comm, tag int) error { _, err := c.Recv(0, tag, buf); return err }, []int{0, mpi.AnyTag, core.MaxTag}, true},
		{"recv", func(c *mpi.Comm, tag int) error { _, err := c.Recv(0, tag, buf); return err }, []int{-2, over, wrapsToAny}, false},
		{"irecv", func(c *mpi.Comm, tag int) error { _, err := c.Irecv(0, tag, buf); return err }, []int{-2, over}, false},
	}
	// One rank talking to itself, in table order: the accepted sends queue
	// as unexpected (tags 0, 7, MaxTag), the accepted probes see them and
	// the accepted receives drain them.
	rep, err := registry.Run(registry.Spec{Platform: "mem", Ranks: 1}, func(c *mpi.Comm) error {
		for _, tc := range cases {
			for _, tag := range tc.tags {
				err := tc.call(c, tag)
				var ce *core.Error
				switch {
				case tc.ok && err != nil:
					t.Errorf("%s with tag %d: %v", tc.name, tag, err)
				case !tc.ok && !(errors.As(err, &ce) && ce.Code == core.ErrInternal && strings.Contains(ce.Msg, "tag")):
					t.Errorf("%s with tag %d: %v, want a typed out-of-range tag error", tc.name, tag, err)
				}
			}
		}
		return nil
	})
	if err == nil {
		err = rep.FirstErr()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// Spec.Coll lands over the backend's own defaults: an explicit entry wins,
// the default survives for every other operation.
func TestBuildMergesCollOverBackendDefaults(t *testing.T) {
	for coll, want := range map[string]string{
		"":                            "bcast=binomial",
		"allreduce=rsag":              "allreduce=rsag,bcast=binomial",
		"bcast=linear,allreduce=rsag": "allreduce=rsag,bcast=linear",
	} {
		w, err := registry.Build(registry.Spec{Platform: "meiko", Impl: "mpich", Ranks: 2, Coll: coll})
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Tune.String(); got != want {
			t.Errorf("meiko/mpich with Coll %q tunes %q, want %q", coll, got, want)
		}
	}
	if w, err := registry.Build(registry.Spec{Platform: "meiko", Ranks: 2}); err != nil || w.Tune != nil {
		t.Errorf("meiko/lowlatency default tuning = %v, %v; want none (auto-select)", w.Tune, err)
	}
}

// Every backend accepts the sharded kernel — under fault injection too,
// where a run is a function of its Spec and not of its kernel (the injector
// draws per link), so a lossy job finishes at the same instant on one lane
// and on two — and the one remaining restriction (no parallel execution
// without lanes) must fail loudly rather than degrade silently.
func TestBuildShardedKernel(t *testing.T) {
	for _, name := range registry.Names() {
		spec := registry.SpecFor(name)
		spec.Ranks, spec.Lanes = 2, 2
		if _, err := registry.Build(spec); err != nil {
			t.Errorf("backend %q rejected Lanes=2: %v", name, err)
		}
	}
	var finish [2]time.Duration
	for i := range finish {
		lossy := registry.Spec{Platform: "cluster", Transport: "udp", Ranks: 4, Lanes: i + 1, LossRate: 0.2}
		rep, err := registry.Run(lossy, func(c *mpi.Comm) error {
			out, in := make([]byte, 4096), make([]byte, 4096)
			next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
			for step := 0; step < 16; step++ {
				if _, err := c.Sendrecv(next, step, out, prev, step, in); err != nil {
					return err
				}
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatalf("lossy ring on %d lanes: %v", i+1, err)
		}
		finish[i] = rep.Elapsed
	}
	if finish[0] != finish[1] {
		t.Errorf("20%% loss: one lane finishes at %v, two lanes at %v", finish[0], finish[1])
	}
	if _, err := registry.Build(registry.Spec{Platform: "cluster", Transport: "shm", Ranks: 2, LossRate: 0.01}); err == nil || !strings.Contains(err.Error(), "lossy wire") {
		t.Errorf("shm with faults must be rejected, got %v", err)
	}
	if _, err := registry.Build(registry.Spec{Platform: "mem", Ranks: 2, Parallel: true}); err == nil {
		t.Error("Parallel without lanes must fail")
	}
}

// Every backend must run a minimal job end to end through Run.
func TestRunSmokeEveryBackend(t *testing.T) {
	for _, name := range registry.Names() {
		name := name
		t.Run(strings.ReplaceAll(name, "/", "_"), func(t *testing.T) {
			spec := registry.SpecFor(name)
			spec.Ranks = 2
			rep, err := registry.Run(spec, func(c *mpi.Comm) error {
				buf := make([]byte, 8)
				if c.Rank() == 0 {
					if err := c.Send(1, 1, []byte("pingpong")); err != nil {
						return err
					}
					_, err := c.Recv(1, 2, buf)
					return err
				}
				if _, err := c.Recv(0, 1, buf); err != nil {
					return err
				}
				return c.Send(0, 2, buf)
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Acct.Count["send"] != 2 || rep.Acct.Count["recv"] != 2 {
				t.Fatalf("counts = %v", rep.Acct.Count)
			}
		})
	}
}
