package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/coll"
)

// refOp is the byte loop the built-in arithmetic ops ran before they folded
// native views: decode each element with binary.NativeEndian, fold, encode.
func refOp[T elem](f func(a, b T) T) Op {
	size := int(unsafe.Sizeof(T(0)))
	get := func(b []byte) T {
		var x any
		switch any(T(0)).(type) {
		case float64:
			x = math.Float64frombits(binary.NativeEndian.Uint64(b))
		case int64:
			x = int64(binary.NativeEndian.Uint64(b))
		case float32:
			x = math.Float32frombits(binary.NativeEndian.Uint32(b))
		case int32:
			x = int32(binary.NativeEndian.Uint32(b))
		}
		return x.(T)
	}
	put := func(b []byte, v T) {
		switch v := any(v).(type) {
		case float64:
			binary.NativeEndian.PutUint64(b, math.Float64bits(v))
		case int64:
			binary.NativeEndian.PutUint64(b, uint64(v))
		case float32:
			binary.NativeEndian.PutUint32(b, math.Float32bits(v))
		case int32:
			binary.NativeEndian.PutUint32(b, uint32(v))
		}
	}
	return func(dst, src []byte) {
		for i := 0; i+size <= len(dst); i += size {
			put(dst[i:], f(get(dst[i:]), get(src[i:])))
		}
	}
}

// opOperand fills k elements of the given size with random bits, salted
// with the edge values of every element type: NaN payloads (quiet and
// signalling, both signs), ±0, ±Inf, the largest and smallest magnitudes
// and the integer extremes.
func opOperand(rng *rand.Rand, size, k int) []byte {
	edges64 := []uint64{
		0x7ff8000000000001, 0x7ff0000000000001, 0xfff8000000000abc, 0, 1 << 63,
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.MaxFloat64), math.Float64bits(math.SmallestNonzeroFloat64),
		math.MaxInt64, 1 << 63, 1<<64 - 1, 1,
	}
	edges32 := []uint32{
		0x7fc00001, 0x7f800001, 0xffc00abc, 0, 1 << 31,
		math.Float32bits(float32(math.Inf(1))), math.Float32bits(float32(math.Inf(-1))),
		math.Float32bits(math.MaxFloat32), math.Float32bits(math.SmallestNonzeroFloat32),
		math.MaxInt32, 1 << 31, 1<<32 - 1, 1,
	}
	b := make([]byte, size*k)
	for i := 0; i < k; i++ {
		edge := rng.Intn(2) == 0
		if size == 8 {
			v := rng.Uint64()
			if edge {
				v = edges64[rng.Intn(len(edges64))]
			}
			binary.NativeEndian.PutUint64(b[8*i:], v)
		} else {
			v := rng.Uint32()
			if edge {
				v = edges32[rng.Intn(len(edges32))]
			}
			binary.NativeEndian.PutUint32(b[4*i:], v)
		}
	}
	return b
}

// TestBuiltinOpsNativeMatchesBytes holds every built-in arithmetic op to
// the byte loop it replaced, bit for bit, with the operands aligned (the
// native view) and at every misalignment of either operand (the byte
// fallback). checkptr checks the alignment of pointer-bearing element types
// only, and amd64 loads a misaligned float64 without complaint, so which
// path an offset takes is checked on aligned itself.
func TestBuiltinOpsNativeMatchesBytes(t *testing.T) {
	ops := []struct {
		name    string
		op, ref Op
		size    int
	}{
		{"SumFloat64", SumFloat64, refOp(add[float64]), 8},
		{"ProdFloat64", ProdFloat64, refOp(mul[float64]), 8},
		{"MaxFloat64", MaxFloat64, refOp(math.Max), 8},
		{"MinFloat64", MinFloat64, refOp(math.Min), 8},
		{"SumInt64", SumInt64, refOp(add[int64]), 8},
		{"MaxInt64", MaxInt64, refOp(greater[int64]), 8},
		{"MinInt64", MinInt64, refOp(lesser[int64]), 8},
		{"SumFloat32", SumFloat32, refOp(add[float32]), 4},
		{"MaxFloat32", MaxFloat32, refOp(greater[float32]), 4},
		{"SumInt32", SumInt32, refOp(add[int32]), 4},
		{"MaxInt32", MaxInt32, refOp(greater[int32]), 4},
		{"MinInt32", MinInt32, refOp(lesser[int32]), 4},
	}
	const k = 67 // elements per operand, plus a ragged tail byte below
	rng := rand.New(rand.NewSource(1))
	for _, o := range ops {
		a, b := opOperand(rng, o.size, k), opOperand(rng, o.size, k)
		for dOff := 0; dOff < 8; dOff++ {
			for sOff := 0; sOff < 8; sOff++ {
				// Word-backed storage, so offset 0 is 8-byte aligned.
				at := func(off int, v []byte) []byte {
					w := make([]uint64, len(v)/8+3)
					buf := unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), 8*len(w))[off : off+len(v)+1]
					copy(buf, v)
					return buf
				}
				got, src := at(dOff, a), at(sOff, b)
				if aligned(got, o.size) != (dOff%o.size == 0) || aligned(src, o.size) != (sOff%o.size == 0) {
					t.Fatalf("%s at dst+%d src+%d: aligned misjudges the operands", o.name, dOff, sOff)
				}
				want := bytes.Clone(got)
				srcBefore := bytes.Clone(src)
				o.op(got, src)
				o.ref(want, src)
				if !bytes.Equal(got, want) {
					t.Errorf("%s at dst+%d src+%d: differs from the byte loop", o.name, dOff, sOff)
				}
				if !bytes.Equal(src, srcBefore) {
					t.Errorf("%s at dst+%d src+%d: wrote its source operand", o.name, dOff, sOff)
				}
			}
		}
	}
}

// collOnce runs op once at n bytes per rank on c, with contents that
// depend on the call number seq, and returns every buffer the rank holds
// afterwards.
func collOnce(c *Comm, op string, n, seq int) ([]byte, error) {
	p, me := c.Size(), c.Rank()
	fill := func(b []byte, salt int) []byte {
		for i := range b {
			b[i] = byte(i*7 + salt*31 + seq*101)
		}
		return b
	}
	mine := fill(make([]byte, n), me)
	// v-variant geometry: rank r moves n/8*(r%3+1) bytes, a multiple of 8.
	counts, total := make([]int, p), 0
	for r := range counts {
		counts[r] = n / 8 * (r%3 + 1)
		total += counts[r]
	}
	switch op {
	case "bcast":
		buf := make([]byte, n)
		if me == 1 {
			fill(buf, 1)
		}
		return buf, c.Bcast(1, buf)
	case "barrier":
		return nil, c.Barrier()
	case "gather":
		all := make([]byte, n*p)
		return all, c.Gather(0, mine, all)
	case "gatherv":
		all := make([]byte, total)
		return all, c.Gatherv(0, mine[:counts[me]], all, counts)
	case "scatter":
		part := make([]byte, n)
		return part, c.Scatter(0, fill(make([]byte, n*p), 0), part)
	case "scatterv":
		part := make([]byte, counts[me])
		return part, c.Scatterv(0, fill(make([]byte, total), 0), counts, part)
	case "allgather":
		all := make([]byte, n*p)
		return all, c.Allgather(mine, all)
	case "allgatherv":
		all := make([]byte, total)
		return all, c.Allgatherv(mine[:counts[me]], all, counts)
	case "alltoall":
		all := make([]byte, n*p)
		return all, c.Alltoall(fill(make([]byte, n*p), me), all)
	case "alltoallv":
		displs := make([]int, p)
		for r := 1; r < p; r++ {
			displs[r] = displs[r-1] + counts[r-1]
		}
		rcounts := make([]int, p)
		for r := range rcounts {
			rcounts[r] = counts[me]
		}
		all := make([]byte, p*counts[me])
		rdispls := make([]int, p)
		for r := range rdispls {
			rdispls[r] = r * counts[me]
		}
		// Rank r sends counts[d] bytes to each d, so d receives counts[d] from all.
		return all, c.Alltoallv(fill(make([]byte, total), me), counts, displs, all, rcounts, rdispls)
	}
	out := make([]byte, n)
	switch op {
	case "reduce":
		return out, c.Reduce(0, SumInt64, mine, out)
	case "allreduce":
		return out, c.AllreduceElem(SumInt64, 8, mine, out)
	case "reducescatter":
		uniform := make([]int, p)
		for r := range uniform {
			uniform[r] = n / p
		}
		return out[:n/p], c.ReduceScatter(SumInt64, mine, out[:n/p], uniform)
	case "scan":
		return out, c.Scan(SumInt64, mine, out)
	case "exscan":
		return out, c.Exscan(SumInt64, mine, out)
	}
	return nil, fmt.Errorf("no scratch-reuse body for collective %q", op)
}

// scratchSizes is a small call, a large one that grows every rank's
// scratch, and a small one served from the grown buffers.
var scratchSizes = []int{64, 16 << 10, 64}

// TestScratchReuse runs scratchSizes back to back in one world under every
// registered algorithm of every collective (the nesting ones included:
// reduce-bcast, reduce-scatterv, gather-bcast), on one lane and on two,
// and requires each rank to end every call holding exactly what the same
// call leaves in a fresh world, whose scratch has never been lent.
func TestScratchReuse(t *testing.T) {
	for _, lanes := range []int{0, 2} {
		for _, op := range coll.Ops() {
			for _, alg := range coll.Names(op) {
				// run makes the calls seqs on a fresh 8-rank world and
				// returns out[call][rank].
				run := func(seqs ...int) ([][][]byte, error) {
					w := memWorldLanes(8, lanes)
					w.Tune = Tuning{op: alg}
					out := make([][][]byte, len(seqs))
					for i := range out {
						out[i] = make([][]byte, w.Size())
					}
					_, err := Launch(w, func(c *Comm) error {
						for i, seq := range seqs {
							got, err := collOnce(c, op, scratchSizes[seq], seq)
							if err != nil {
								return err
							}
							out[i][c.Rank()] = got
						}
						return nil
					})
					return out, err
				}
				name := fmt.Sprintf("lanes%d/%s/%s", lanes, op, alg)
				seqs := make([]int, len(scratchSizes))
				for i := range seqs {
					seqs[i] = i
				}
				got, err := run(seqs...)
				if err != nil && strings.Contains(err.Error(), "not applicable") {
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, seq := range seqs {
					want, err := run(seq)
					if err != nil {
						t.Fatalf("%s fresh call %d: %v", name, seq, err)
					}
					for r := range want[0] {
						if !bytes.Equal(got[seq][r], want[0][r]) {
							t.Errorf("%s call %d (%d B) rank %d: differs from the same call in a fresh world",
								name, seq, scratchSizes[seq], r)
						}
					}
				}
			}
		}
	}
}
