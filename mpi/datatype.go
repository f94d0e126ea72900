package mpi

import (
	"encoding/binary"
	"math"
	"time"

	"repro/internal/sim"
)

// Datatype describes a (possibly non-contiguous) layout of typed elements
// in a byte buffer, in the spirit of MPI derived datatypes. Pack gathers
// one element from its layout into contiguous bytes; Unpack scatters back.
//
// Size is the packed byte count of one element; Extent is the span the
// element occupies in the source buffer (stride-aware, like MPI extents).
type Datatype interface {
	Size() int
	Extent() int
	Pack(dst, src []byte)
	Unpack(dst, src []byte)
}

// base is a contiguous fixed-width type.
type base int

// Basic datatypes.
const (
	Byte    base = 1
	Int16   base = 2
	Int32   base = 4
	Float32 base = 5 // distinct tag; width via width()
	Int64   base = 8
	Float64 base = 9
)

func (b base) width() int {
	switch b {
	case Byte:
		return 1
	case Int16:
		return 2
	case Int32, Float32:
		return 4
	case Int64, Float64:
		return 8
	default:
		panic("mpi: unknown basic datatype")
	}
}

func (b base) Size() int   { return b.width() }
func (b base) Extent() int { return b.width() }
func (b base) Pack(dst, src []byte) {
	copy(dst[:b.width()], src)
}
func (b base) Unpack(dst, src []byte) {
	copy(dst, src[:b.width()])
}

// Contig is count consecutive elements of a base type
// (MPI_Type_contiguous).
type Contig struct {
	Count int
	Of    Datatype
}

// Size implements Datatype: the packed bytes of all Count elements.
func (c Contig) Size() int { return c.Count * c.Of.Size() }

// Extent implements Datatype: contiguous elements span their extents
// back to back.
func (c Contig) Extent() int { return c.Count * c.Of.Extent() }

// Pack implements Datatype.
func (c Contig) Pack(dst, src []byte) {
	sz, ex := c.Of.Size(), c.Of.Extent()
	for i := 0; i < c.Count; i++ {
		c.Of.Pack(dst[i*sz:], src[i*ex:])
	}
}

// Unpack implements Datatype.
func (c Contig) Unpack(dst, src []byte) {
	sz, ex := c.Of.Size(), c.Of.Extent()
	for i := 0; i < c.Count; i++ {
		c.Of.Unpack(dst[i*ex:], src[i*sz:])
	}
}

// Vector is count blocks of blocklen elements separated by stride elements
// (MPI_Type_vector). Stride is in elements of the underlying type.
type Vector struct {
	Count, BlockLen, Stride int
	Of                      Datatype
}

// Size implements Datatype: Count blocks of BlockLen packed elements.
func (v Vector) Size() int { return v.Count * v.BlockLen * v.Of.Size() }

// Extent implements Datatype: the span from the first element through the
// end of the last block, stride included.
func (v Vector) Extent() int {
	if v.Count == 0 {
		return 0
	}
	return ((v.Count-1)*v.Stride + v.BlockLen) * v.Of.Extent()
}

// Pack implements Datatype.
func (v Vector) Pack(dst, src []byte) {
	sz, ex := v.Of.Size(), v.Of.Extent()
	o := 0
	for i := 0; i < v.Count; i++ {
		for j := 0; j < v.BlockLen; j++ {
			v.Of.Pack(dst[o:], src[(i*v.Stride+j)*ex:])
			o += sz
		}
	}
}

// Unpack implements Datatype.
func (v Vector) Unpack(dst, src []byte) {
	sz, ex := v.Of.Size(), v.Of.Extent()
	o := 0
	for i := 0; i < v.Count; i++ {
		for j := 0; j < v.BlockLen; j++ {
			v.Of.Unpack(dst[(i*v.Stride+j)*ex:], src[o:])
			o += sz
		}
	}
}

// Indexed is blocks of varying lengths at varying element displacements
// (MPI_Type_indexed).
type Indexed struct {
	BlockLens []int
	Displs    []int
	Of        Datatype
}

// Size implements Datatype: the packed bytes of every block.
func (x Indexed) Size() int {
	n := 0
	for _, b := range x.BlockLens {
		n += b
	}
	return n * x.Of.Size()
}

// Extent implements Datatype: the span through the end of the
// furthest-displaced block.
func (x Indexed) Extent() int {
	max := 0
	for i, b := range x.BlockLens {
		if end := x.Displs[i] + b; end > max {
			max = end
		}
	}
	return max * x.Of.Extent()
}

// Pack implements Datatype.
func (x Indexed) Pack(dst, src []byte) {
	sz, ex := x.Of.Size(), x.Of.Extent()
	o := 0
	for i, b := range x.BlockLens {
		for j := 0; j < b; j++ {
			x.Of.Pack(dst[o:], src[(x.Displs[i]+j)*ex:])
			o += sz
		}
	}
}

// Unpack implements Datatype.
func (x Indexed) Unpack(dst, src []byte) {
	sz, ex := x.Of.Size(), x.Of.Extent()
	o := 0
	for i, b := range x.BlockLens {
		for j := 0; j < b; j++ {
			x.Of.Unpack(dst[(x.Displs[i]+j)*ex:], src[o:])
			o += sz
		}
	}
}

// StructType is a sequence of fields at byte displacements, each with its
// own datatype and count (MPI_Type_struct).
type StructType struct {
	Fields []StructField
}

// StructField is one field of a StructType.
type StructField struct {
	Displ int // byte displacement within the struct
	Count int
	Of    Datatype
}

// Size implements Datatype: the packed bytes of every field.
func (s StructType) Size() int {
	n := 0
	for _, f := range s.Fields {
		n += f.Count * f.Of.Size()
	}
	return n
}

// Extent implements Datatype: the span through the end of the
// furthest-displaced field.
func (s StructType) Extent() int {
	max := 0
	for _, f := range s.Fields {
		if end := f.Displ + f.Count*f.Of.Extent(); end > max {
			max = end
		}
	}
	return max
}

// Pack implements Datatype.
func (s StructType) Pack(dst, src []byte) {
	o := 0
	for _, f := range s.Fields {
		sz, ex := f.Of.Size(), f.Of.Extent()
		for j := 0; j < f.Count; j++ {
			f.Of.Pack(dst[o:], src[f.Displ+j*ex:])
			o += sz
		}
	}
}

// Unpack implements Datatype.
func (s StructType) Unpack(dst, src []byte) {
	o := 0
	for _, f := range s.Fields {
		sz, ex := f.Of.Size(), f.Of.Extent()
		for j := 0; j < f.Count; j++ {
			f.Of.Unpack(dst[f.Displ+j*ex:], src[o:])
			o += sz
		}
	}
}

// Pack gathers count elements of dt from src into a fresh contiguous
// buffer (MPI_Pack), charging the copy to the calling rank.
func (c *Comm) Pack(dt Datatype, count int, src []byte) []byte {
	out := make([]byte, count*dt.Size())
	for i := 0; i < count; i++ {
		dt.Pack(out[i*dt.Size():], src[i*dt.Extent():])
	}
	c.Acct().Spend(c.p, sim.Copy, chargePerByte(len(out)))
	return out
}

// Unpack scatters packed elements back into dst's layout (MPI_Unpack).
func (c *Comm) Unpack(dt Datatype, count int, packed, dst []byte) {
	for i := 0; i < count; i++ {
		dt.Unpack(dst[i*dt.Extent():], packed[i*dt.Size():])
	}
	c.Acct().Spend(c.p, sim.Copy, chargePerByte(count*dt.Size()))
}

// chargePerByte is the nominal pack/unpack cost (a main-CPU memcpy at
// roughly the platforms' 10 MB/s).
func chargePerByte(n int) time.Duration { return time.Duration(n) * 100 * time.Nanosecond }

// SendTyped packs count elements of dt from src and sends them
// (the typed-buffer form of MPI_Send).
func (c *Comm) SendTyped(dst, tag int, dt Datatype, count int, src []byte) error {
	return c.Send(dst, tag, c.Pack(dt, count, src))
}

// RecvTyped receives count elements of dt into dst's layout.
func (c *Comm) RecvTyped(src, tag int, dt Datatype, count int, dst []byte) (Status, error) {
	packed := make([]byte, count*dt.Size())
	st, err := c.Recv(src, tag, packed)
	if err != nil {
		return st, err
	}
	c.Unpack(dt, count, packed, dst)
	return st, nil
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
