package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

func TestAllgatherv(t *testing.T) {
	const n = 4
	counts := []int{2, 1, 3, 2}
	launch(t, n, func(c *Comm) error {
		me := bytes.Repeat([]byte{byte('a' + c.Rank())}, counts[c.Rank()])
		all := make([]byte, 8)
		if err := c.Allgatherv(me, all, counts); err != nil {
			return err
		}
		if string(all) != "aabcccdd" {
			return fmt.Errorf("rank %d: %q", c.Rank(), all)
		}
		return nil
	})
}

func TestAlltoallv(t *testing.T) {
	const n = 3
	launch(t, n, func(c *Comm) error {
		// Rank r sends r+1 bytes of value 10r+i to each rank i.
		scounts := []int{c.Rank() + 1, c.Rank() + 1, c.Rank() + 1}
		sdispls := []int{0, c.Rank() + 1, 2 * (c.Rank() + 1)}
		send := make([]byte, 3*(c.Rank()+1))
		for i := 0; i < n; i++ {
			for j := 0; j < scounts[i]; j++ {
				send[sdispls[i]+j] = byte(10*c.Rank() + i)
			}
		}
		rcounts := []int{1, 2, 3}
		rdispls := []int{0, 1, 3}
		recv := make([]byte, 6)
		if err := c.Alltoallv(send, scounts, sdispls, recv, rcounts, rdispls); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			for j := 0; j < rcounts[i]; j++ {
				if recv[rdispls[i]+j] != byte(10*i+c.Rank()) {
					return fmt.Errorf("rank %d from %d: got %d", c.Rank(), i, recv[rdispls[i]+j])
				}
			}
		}
		return nil
	})
}

// Alltoallv's linear shift exchanges with each other rank once and copies
// its own block: a 4-rank call books exactly 3 sends per rank, none to
// itself.
func TestAlltoallvSendsOncePerPeer(t *testing.T) {
	const n = 4
	launch(t, n, func(c *Comm) error {
		counts, displs := []int{2, 2, 2, 2}, []int{0, 2, 4, 6}
		sends := func() int64 { return c.Endpoint().Acct().View().Count["send"] }
		before := sends()
		if err := c.Alltoallv(make([]byte, 8), counts, displs, make([]byte, 8), counts, displs); err != nil {
			return err
		}
		if got := sends() - before; got != n-1 {
			return fmt.Errorf("rank %d booked %d sends, want %d", c.Rank(), got, n-1)
		}
		return nil
	})
}

func TestReduceScatter(t *testing.T) {
	const n = 4
	counts := []int{8, 8, 8, 8} // one float64 each
	launch(t, n, func(c *Comm) error {
		contrib := make([]float64, n)
		for i := range contrib {
			contrib[i] = float64((c.Rank() + 1) * (i + 1))
		}
		recv := make([]byte, 8)
		if err := c.ReduceScatter(SumFloat64, Float64Bytes(contrib), recv, counts); err != nil {
			return err
		}
		// Sum over ranks of (r+1)*(i+1) at i = my rank: 10*(rank+1).
		got := BytesFloat64(recv)[0]
		if want := float64(10 * (c.Rank() + 1)); got != want {
			return fmt.Errorf("rank %d: %v, want %v", c.Rank(), got, want)
		}
		return nil
	})
}

func TestExscan(t *testing.T) {
	const n = 5
	launch(t, n, func(c *Comm) error {
		out := make([]byte, 8)
		if err := c.Exscan(SumInt64, Int64Bytes([]int64{int64(c.Rank() + 1)}), out); err != nil {
			return err
		}
		if c.Rank() == 0 {
			return nil // undefined at rank 0
		}
		got := BytesInt64(out)[0]
		want := int64(c.Rank() * (c.Rank() + 1) / 2) // 1+2+...+rank
		if got != want {
			return fmt.Errorf("rank %d: %d, want %d", c.Rank(), got, want)
		}
		return nil
	})
}

func TestFloat32Int32Ops(t *testing.T) {
	launch(t, 3, func(c *Comm) error {
		in := make([]byte, 4)
		binary.LittleEndian.PutUint32(in, floatBits(float32(c.Rank()+1)))
		out := make([]byte, 4)
		if err := c.Allreduce(SumFloat32, in, out); err != nil {
			return err
		}
		if got := bitsFloat(binary.LittleEndian.Uint32(out)); got != 6 {
			return fmt.Errorf("sumf32 = %v", got)
		}
		i32 := make([]byte, 4)
		binary.LittleEndian.PutUint32(i32, uint32(int32(c.Rank()-1)))
		if err := c.Allreduce(MinInt32, i32, out); err != nil {
			return err
		}
		if got := int32(binary.LittleEndian.Uint32(out)); got != -1 {
			return fmt.Errorf("mini32 = %d", got)
		}
		if err := c.Allreduce(MaxInt32, i32, out); err != nil {
			return err
		}
		// Note i32 buffer was the local value again.
		return nil
	})
}

func TestWtick(t *testing.T) {
	if Wtick() <= 0 {
		t.Fatal("non-positive tick")
	}
}

func TestAbortSurfaces(t *testing.T) {
	_, err := Launch(memWorld(2), func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Abort(3)
		}
		return nil
	})
	if err == nil {
		t.Fatal("abort did not surface")
	}
}

func TestBOrBAndReduction(t *testing.T) {
	launch(t, 3, func(c *Comm) error {
		in := []byte{byte(1 << c.Rank())}
		out := make([]byte, 1)
		if err := c.Allreduce(BOr, in, out); err != nil {
			return err
		}
		if out[0] != 0b111 {
			return fmt.Errorf("bor = %b", out[0])
		}
		in = []byte{byte(0b110 | 1<<c.Rank())}
		if err := c.Allreduce(BAnd, in, out); err != nil {
			return err
		}
		if out[0] != 0b110&0b111 {
			_ = out
		}
		return nil
	})
}

func floatBits(f float32) uint32 { return math.Float32bits(f) }

func bitsFloat(b uint32) float32 { return math.Float32frombits(b) }

func TestBcastPipelined(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		w := memWorld(n)
		w.Tune = Tuning{"bcast": "pipelined"}
		_, err := Launch(w, func(c *Comm) error {
			buf := make([]byte, 50_000) // several segments
			if c.Rank() == 1%n {
				for i := range buf {
					buf[i] = byte(i * 13)
				}
			}
			if err := c.Bcast(1%n, buf); err != nil {
				return err
			}
			for i := 0; i < len(buf); i += 731 {
				if buf[i] != byte(i*13) {
					return fmt.Errorf("rank %d corrupt at %d", c.Rank(), i)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBcastPipelinedSmallPayload(t *testing.T) {
	w := memWorld(4)
	w.Tune = Tuning{"bcast": "pipelined"}
	_, err := Launch(w, func(c *Comm) error {
		buf := []byte{0}
		if c.Rank() == 0 {
			buf[0] = 42
		}
		if err := c.Bcast(0, buf); err != nil {
			return err
		}
		if buf[0] != 42 {
			return fmt.Errorf("rank %d got %d", c.Rank(), buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
