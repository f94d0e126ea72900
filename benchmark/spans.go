package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder was created
	Parent     int           // index of the enclosing span, -1 at the top
}

// spans records a span around every call the benchmark makes into the
// program (registry.Build, workload.Run, Trace.Marshal, each driver, ...),
// in memory, and writes them out once at exit. A nil *spans records
// nothing, which is how the timed pass runs.
type spans struct {
	workload string
	t0       time.Time
	all      []span
	open     []int // stack of enclosing span indices
}

func newSpans(workload string) *spans {
	return &spans{workload: workload, t0: time.Now()}
}

// do runs fn inside a span called name.
func (s *spans) do(name string, fn func()) {
	if s == nil {
		fn()
		return
	}
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	id := len(s.all)
	s.all = append(s.all, span{Name: name, Start: time.Since(s.t0), Parent: parent})
	s.open = append(s.open, id)
	fn()
	s.open = s.open[:len(s.open)-1]
	s.all[id].End = time.Since(s.t0)
}

// write stores the spans as trace-event JSON (the format chrome://tracing
// and Perfetto load): one complete ("X") event per span, times in µs.
func (s *spans) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(s.all))
	for i, sp := range s.all {
		evs[i] = event{
			Name: sp.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(sp.Start) / float64(time.Microsecond),
			Dur:  float64(sp.End-sp.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": sp.Parent, "workload": s.workload},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
