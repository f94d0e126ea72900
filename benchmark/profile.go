package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// shareLayers are the buckets a CPU sample can be charged to: one per
// repo module on the message path, then the three kinds of stack that
// hold no repo frame at all.
var shareLayers = []string{
	"sim", "core", "flow", "atm", "meiko", "platform-cluster", "platform-meiko",
	"coll", "mpi", "workload", "trace", "runtime-gc", "runtime-sched", "other",
}

// repoLayers maps a function-name prefix (package path plus the dot) to
// its layer. The two patterns the benchmark registers are workload code.
var repoLayers = []struct{ prefix, layer string }{
	{"repro/internal/sim.", "sim"},
	{"repro/internal/core.", "core"},
	{"repro/internal/flow.", "flow"},
	{"repro/internal/atm.", "atm"},
	{"repro/internal/meiko.", "meiko"},
	{"repro/platform/cluster.", "platform-cluster"},
	{"repro/platform/meiko.", "platform-meiko"},
	{"repro/internal/coll.", "coll"},
	{"repro/mpi.", "mpi"},
	{"repro/internal/workload.", "workload"},
	{"repro/internal/trace.", "trace"},
	{"main.pattern", "workload"},
}

// attribute charges one sampled stack (function names, innermost first)
// to a layer: the innermost repo frame wins, so runtime.chansend under
// sim.dispatch is sim and runtime.mapassign under core.Acct.Incr is core.
// A stack with no repo frame is the collector's, the goroutine
// scheduler's, or neither (the benchmark's own work counts as other).
func attribute(frames []string) string {
	for _, f := range frames {
		for _, l := range repoLayers {
			if strings.HasPrefix(f, l.prefix) {
				return l.layer
			}
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gc"), strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"), strings.HasPrefix(f, "runtime.(*gc"):
			return "runtime-gc"
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.goexit0",
			"runtime.gosched_m", "runtime.mstart1", "runtime.stopm", "runtime.startm":
			return "runtime-sched"
		}
	}
	return "other"
}

// hostShares charges every sample of a gzipped pprof CPU profile to a
// layer and reports each layer's share of the samples and their number.
func hostShares(profile []byte) (map[string]float64, int64, error) {
	stacks, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[attribute(s.frames)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for _, l := range shareLayers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		}
	}
	return shares, total, nil
}

type stackSample struct {
	frames []string // function names, innermost first, inlined frames expanded
	count  int64    // samples taken with this stack
}

var errProto = errors.New("malformed profile.proto")

// walk calls fn for every field of one protobuf message: v holds a varint
// field's value, data a length-delimited field's bytes (nil otherwise).
func walk(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1, 5:
			n = 8
			if key&7 == 5 {
				n = 4
			}
			if len(b) < n {
				return errProto
			}
			b = b[n:]
			continue // fixed-width fields carry nothing the reader needs
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			// Non-nil even when empty, which is how fn tells it from a varint.
			data, b = b[n:n+int(l):n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// uints appends a repeated integer field, which the encoder may have
// written packed (data) or one value at a time (v).
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// parseProfile reads the few fields of a gzipped profile.proto that stack
// attribution needs: samples (location ids and the first value, the sample
// count), locations (their lines' function ids), functions (name index),
// and the string table.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string table index
	var strs []string
	err = walk(raw, func(field int, _ uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			if err := walk(data, func(f int, v uint64, d []byte) (err error) {
				switch f {
				case 1:
					s.locs, err = uints(s.locs, v, d)
				case 2:
					s.values, err = uints(s.values, v, d)
				}
				return err
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := walk(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walk(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := walk(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		st := stackSample{count: int64(s.values[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}
