package mpi

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Prebuilt reduction operators over packed buffers of host-byte-order
// elements, the analogues of MPI_SUM, MPI_PROD, MPI_MAX, MPI_MIN, MPI_BAND,
// MPI_BOR.

// elem is the element type of a built-in arithmetic reduction.
type elem interface {
	float64 | int64 | float32 | int32
}

// elemOp builds the operator folding f over packed T elements. When both
// operands are aligned to T's size — the typed wrappers' buffers, the
// collective layer's scratch and every whole-element slice of them are —
// it folds native views in place; a misaligned operand falls back to
// moving each element through its bytes.
func elemOp[T elem](f func(a, b T) T) Op {
	size := int(unsafe.Sizeof(T(0)))
	return func(dst, src []byte) {
		n := len(dst) / size
		if n == 0 {
			return
		}
		src = src[:len(dst)]
		if aligned(dst, size) && aligned(src, size) {
			d := unsafe.Slice((*T)(unsafe.Pointer(&dst[0])), n)
			s := unsafe.Slice((*T)(unsafe.Pointer(&src[0])), n)
			for i := range d {
				d[i] = f(d[i], s[i])
			}
			return
		}
		for i := 0; i < n*size; i += size {
			store(dst[i:], f(load[T](dst[i:]), load[T](src[i:])))
		}
	}
}

func aligned(b []byte, size int) bool {
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%uintptr(size) == 0
}

// load and store move one element through its bytes in host order (what
// binary.NativeEndian reads and writes), with no alignment assumed.
func load[T elem](b []byte) (x T) {
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&x)), unsafe.Sizeof(x)), b)
	return x
}

func store[T elem](b []byte, x T) {
	copy(b, unsafe.Slice((*byte)(unsafe.Pointer(&x)), unsafe.Sizeof(x)))
}

func add[T elem](a, b T) T { return a + b }
func mul[T elem](a, b T) T { return a * b }

func greater[T elem](a, b T) T {
	if a > b {
		return a
	}
	return b
}

func lesser[T int64 | int32](a, b T) T { return min(a, b) }

// Float64 reductions.
var (
	SumFloat64  = elemOp(add[float64])
	ProdFloat64 = elemOp(mul[float64])
	MaxFloat64  = elemOp(math.Max)
	MinFloat64  = elemOp(math.Min)
)

// Int64 reductions.
var (
	SumInt64 = elemOp(add[int64])
	MaxInt64 = elemOp(greater[int64])
	MinInt64 = elemOp(lesser[int64])
)

// Float32 and Int32 reductions.
var (
	SumFloat32 = elemOp(add[float32])
	MaxFloat32 = elemOp(greater[float32])
	SumInt32   = elemOp(add[int32])
	MaxInt32   = elemOp(greater[int32])
	MinInt32   = elemOp(lesser[int32])
)

// Bitwise reductions over raw bytes.
var (
	BAnd Op = func(dst, src []byte) {
		for i := range dst {
			dst[i] &= src[i]
		}
	}
	BOr Op = func(dst, src []byte) {
		for i := range dst {
			dst[i] |= src[i]
		}
	}
)

// Int64Bytes and BytesInt64 encode []int64 in host byte order, the layout
// the typed reductions read.
func Int64Bytes(xs []int64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.NativeEndian.PutUint64(b[8*i:], uint64(x))
	}
	return b
}

// BytesInt64 decodes Int64Bytes.
func BytesInt64(b []byte) []int64 {
	xs := make([]int64, len(b)/8)
	for i := range xs {
		xs[i] = int64(binary.NativeEndian.Uint64(b[8*i:]))
	}
	return xs
}

// Float64Bytes encodes a []float64 in host byte order (copying), for use
// with the []byte message API; it is the layout the typed reductions read.
func Float64Bytes(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.NativeEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// BytesFloat64 decodes Float64Bytes.
func BytesFloat64(b []byte) []float64 {
	xs := make([]float64, len(b)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.NativeEndian.Uint64(b[8*i:]))
	}
	return xs
}

// asBytes views a typed slice as its bytes, in place.
func asBytes[T float64 | int64](xs []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*int(unsafe.Sizeof(T(0))))
}

// AllreduceFloat64 reduces send across the communicator into recv (which
// must be at least as long, and must not overlap send), like Allreduce on
// the slices' bytes: nothing is encoded, copied or allocated. The declared
// 8-byte element size lets the vector-splitting allreduce algorithms apply.
func (c *Comm) AllreduceFloat64(op Op, send, recv []float64) error {
	return c.AllreduceElem(op, 8, asBytes(send), asBytes(recv))
}

// AllreduceInt64 is AllreduceFloat64's integer sibling.
func (c *Comm) AllreduceInt64(op Op, send, recv []int64) error {
	return c.AllreduceElem(op, 8, asBytes(send), asBytes(recv))
}

// ReduceFloat64 reduces send to recv at the root, like Reduce on the
// slices' bytes; recv is significant only at the root and must not overlap
// send.
func (c *Comm) ReduceFloat64(root int, op Op, send, recv []float64) error {
	return c.Reduce(root, op, asBytes(send), asBytes(recv))
}
