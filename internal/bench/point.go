package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/trace"
	"repro/mpi"
	"repro/platform/registry"

	// Every MPI-level measurement builds its world through the registry;
	// the platforms register themselves on import.
	_ "repro/platform/cluster"
	_ "repro/platform/meiko"
)

// A record point is a value: a key naming it by the record's own
// coordinates (collectives/cluster-tcp/allreduce/rdbl/65536), where the
// report holds it, and how to measure it again. A suite lists the points of
// a report; one runner maps over them, so a fresh record and the
// re-measurement of one committed number (repro -explain) take one path.
type point struct {
	key     string
	at      any                   // points into the report the point was listed from
	measure func(x *runner) error // re-runs the point and stores its value at at
}

// encoded is the point's value as its record holds it: what the baseline
// gate and Explain compare byte for byte.
func (p point) encoded() []byte {
	v, _ := json.Marshal(p.at) // a point's value is plain data
	return v
}

// value lists the point key held at v and measured by m.
func value[V any](key string, v *V, m func(x *runner) (V, error)) point {
	return point{key, v, func(x *runner) (err error) {
		*v, err = m(x)
		return err
	}}
}

// each lists one point per element of list, keyed by key and measured by
// m: the element is the point's value.
func each[E any](list []E, key func(E) string, m func(x *runner, e E) (E, error)) []point {
	pts := make([]point, len(list))
	for i := range list {
		e := &list[i]
		pts[i] = value(key(*e), e, func(x *runner) (E, error) { return m(x, *e) })
	}
	return pts
}

// key joins a point's coordinates, each lower-cased and made shell-safe:
// every run of characters other than letters, digits and dots is one dash.
func key(coords ...any) string {
	parts := make([]string, len(coords))
	for i, c := range coords {
		f := strings.FieldsFunc(strings.ToLower(fmt.Sprint(c)), func(r rune) bool {
			return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '.')
		})
		parts[i] = strings.Join(f, "-")
	}
	return strings.Join(parts, "/")
}

// sweep is the shape of one report: a skeleton holding every point's
// coordinates, the points of any report of that shape (a fresh skeleton or
// a committed record), and the fields derived from the measured points.
type sweep[R any] struct {
	skeleton func() R
	points   func(r *R) []point
	finish   func(x *runner, r *R) error // nil when nothing is derived
}

// run measures a fresh report: the skeleton's points, mapped by one runner,
// then the derived fields.
func (s sweep[R]) run() (R, error) {
	x, r := &runner{}, s.skeleton()
	if err := x.measure(s.points(&r)); err != nil || s.finish == nil {
		return r, err
	}
	return r, s.finish(x, &r)
}

// measure measures pts in order.
func (x *runner) measure(pts []point) error {
	for _, p := range pts {
		if err := p.measure(x); err != nil {
			return fmt.Errorf("%s: %w", p.key, err)
		}
	}
	return nil
}

// runner measures points. Every MPI world a point runs is built by world;
// when a point is explained, observe sees each one with its message
// timeline, and nothing is recorded otherwise.
type runner struct {
	memo    map[string]any
	observe func(spec registry.Spec, rep *mpi.Report, log *trace.Log)
}

// world builds spec's world through the registry and runs it.
func (x *runner) world(spec registry.Spec, run func(w *mpi.World) (*mpi.Report, error)) (*mpi.Report, error) {
	w, err := registry.Build(spec)
	if err != nil {
		return nil, err
	}
	var log *trace.Log
	if x.observe != nil {
		log = w.EnableTrace()
	}
	rep, err := run(w)
	if x.observe != nil && rep != nil {
		x.observe(spec, rep, log)
	}
	return rep, err
}

// launch runs body on every rank of spec's world.
func (x *runner) launch(spec registry.Spec, body func(c *mpi.Comm) error) (*mpi.Report, error) {
	return x.world(spec, func(w *mpi.World) (*mpi.Report, error) { return mpi.Launch(w, body) })
}

// once returns run's value under name, running it the first time only:
// points of one report share a measurement (Table 1's rows and three
// anchors read one ping-pong per medium).
func once[V any](x *runner, name string, run func() (V, error)) (V, error) {
	if v, ok := x.memo[name]; ok {
		return v.(V), nil
	}
	v, err := run()
	if err == nil {
		if x.memo == nil {
			x.memo = map[string]any{}
		}
		x.memo[name] = v
	}
	return v, err
}

// kernel is one way to drive a Spec's world: the single-lane scheduler
// (Lanes 0 or 1) or shard lanes, run in sequence or on parallel workers.
type kernel struct {
	Lanes    int
	Parallel bool
}

// kernels are the single-lane scheduler, two lanes run in sequence, and
// eight on the pinned parallel workers.
var kernels = []kernel{{1, false}, {2, false}, {8, true}}

// on is spec driven by kernel k.
func on(spec registry.Spec, k kernel) registry.Spec {
	spec.Lanes, spec.Parallel = k.Lanes, k.Parallel
	return spec
}

// reproduced is the kernel cross-check: a run is a function of its Spec, not
// of its kernel, so run measures on ks[0] and every other kernel must
// reproduce that value. It returns the first value and whether they did.
func reproduced[V any](ks []kernel, run func(k kernel) (V, error), same func(a, b V) bool) (V, bool, error) {
	first, err := run(ks[0])
	ok := true
	for _, k := range ks[1:] {
		if err != nil {
			break
		}
		var v V
		v, err = run(k)
		ok = ok && same(first, v)
	}
	return first, ok && err == nil, err
}
