package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// memWorld builds an n-rank world over the reference in-memory transport.
func memWorld(n int) *World { return memWorldLanes(n, 0) }

// memWorldLanes is memWorld on a standalone scheduler (lanes <= 1) or on
// that many shard lanes.
func memWorldLanes(n, lanes int) *World {
	s := sim.NewKernel(1, lanes, n, time.Microsecond, 5_000_000)
	fab := core.NewMemFabric(s, time.Microsecond, 180)
	eps := make([]core.Endpoint, n)
	for i := range eps {
		e := core.NewEngine(s.Node(i, n), i, n, core.EngineCosts{})
		fab.Attach(e)
		eps[i] = e
	}
	return NewWorld(s, eps)
}

func launch(t *testing.T, n int, body func(c *Comm) error) *Report {
	t.Helper()
	rep, err := Launch(memWorld(n), body)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	return rep
}

func TestSendRecvBasic(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, []byte("ping"))
		}
		buf := make([]byte, 4)
		st, err := c.Recv(0, 5, buf)
		if err != nil {
			return err
		}
		if string(buf) != "ping" || st.Source != 0 || st.Count != 4 {
			t.Errorf("got %q, %+v", buf, st)
		}
		return nil
	})
}

func TestRingSendrecv(t *testing.T) {
	const n = 6
	launch(t, n, func(c *Comm) error {
		right := (c.Rank() + 1) % n
		left := (c.Rank() - 1 + n) % n
		out := []byte{byte(c.Rank())}
		in := make([]byte, 1)
		st, err := c.Sendrecv(right, 1, out, left, 1, in)
		if err != nil {
			return err
		}
		if int(in[0]) != left || st.Source != left {
			t.Errorf("rank %d got %d from %d", c.Rank(), in[0], st.Source)
		}
		return nil
	})
}

func TestWtimeAdvances(t *testing.T) {
	launch(t, 1, func(c *Comm) error {
		t0 := c.Wtime()
		c.Compute(3 * time.Millisecond)
		if d := c.Wtime() - t0; d != 3*time.Millisecond {
			t.Errorf("Wtime advanced %v, want 3ms", d)
		}
		return nil
	})
}

func TestBcastAlgorithms(t *testing.T) {
	for i, tune := range []Tuning{nil, {"bcast": "linear"}, {"bcast": "binomial"}} { // nil auto-selects
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 7, 8} {
				w := memWorld(n)
				w.Tune = tune
				rep, err := Launch(w, func(c *Comm) error {
					buf := make([]byte, 100)
					if c.Rank() == 2%n {
						for i := range buf {
							buf[i] = byte(i * 3)
						}
					}
					if err := c.Bcast(2%n, buf); err != nil {
						return err
					}
					for i := range buf {
						if buf[i] != byte(i*3) {
							return fmt.Errorf("rank %d: bcast corrupted at %d", c.Rank(), i)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("n=%d: %v (rep %+v)", n, err, rep.Errs)
				}
			}
		})
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 5
	var after [n]time.Duration
	launch(t, n, func(c *Comm) error {
		// Rank r arrives at the barrier at (r+1)*10ms.
		c.Compute(time.Duration(c.Rank()+1) * 10 * time.Millisecond)
		if err := c.Barrier(); err != nil {
			return err
		}
		after[c.Rank()] = c.Wtime()
		return nil
	})
	for r := 0; r < n; r++ {
		if after[r] < 50*time.Millisecond {
			t.Fatalf("rank %d left the barrier at %v, before the slowest rank arrived", r, after[r])
		}
	}
}

func TestGatherScatter(t *testing.T) {
	const n = 4
	launch(t, n, func(c *Comm) error {
		me := []byte{byte(10 + c.Rank())}
		all := make([]byte, n)
		if err := c.Gather(0, me, all); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if all[i] != byte(10+i) {
					t.Errorf("gather[%d] = %d", i, all[i])
				}
			}
		}
		// Scatter back doubled values.
		var src []byte
		if c.Rank() == 0 {
			src = make([]byte, n)
			for i := range src {
				src[i] = byte(2 * (10 + i))
			}
		}
		out := make([]byte, 1)
		if err := c.Scatter(0, src, out); err != nil {
			return err
		}
		if out[0] != byte(2*(10+c.Rank())) {
			t.Errorf("rank %d scatter got %d", c.Rank(), out[0])
		}
		return nil
	})
}

func TestGathervScatterv(t *testing.T) {
	const n = 3
	counts := []int{1, 3, 2}
	launch(t, n, func(c *Comm) error {
		me := bytes.Repeat([]byte{byte('a' + c.Rank())}, counts[c.Rank()])
		all := make([]byte, 6)
		if err := c.Gatherv(0, me, all, counts); err != nil {
			return err
		}
		if c.Rank() == 0 && string(all) != "abbbcc" {
			t.Errorf("gatherv = %q", all)
		}
		recv := make([]byte, counts[c.Rank()])
		var src []byte
		if c.Rank() == 0 {
			src = []byte("xyyyzz")
		}
		if err := c.Scatterv(0, src, counts, recv); err != nil {
			return err
		}
		want := string(bytes.Repeat([]byte{byte('x' + c.Rank())}, counts[c.Rank()]))
		if string(recv) != want {
			t.Errorf("rank %d scatterv got %q want %q", c.Rank(), recv, want)
		}
		return nil
	})
}

func TestAllgather(t *testing.T) {
	const n = 5
	launch(t, n, func(c *Comm) error {
		all := make([]byte, n)
		if err := c.Allgather([]byte{byte(c.Rank())}, all); err != nil {
			return err
		}
		for i := range all {
			if all[i] != byte(i) {
				t.Errorf("rank %d allgather[%d]=%d", c.Rank(), i, all[i])
			}
		}
		return nil
	})
}

func TestReduceAllreduceScan(t *testing.T) {
	const n = 6
	launch(t, n, func(c *Comm) error {
		x := []float64{float64(c.Rank() + 1), 2}
		sum := make([]float64, 2)
		if err := c.ReduceFloat64(0, SumFloat64, x, sum); err != nil {
			return err
		}
		if c.Rank() == 0 && (sum[0] != 21 || sum[1] != 12) {
			t.Errorf("reduce sum = %v", sum)
		}
		all := make([]float64, 1)
		if err := c.AllreduceFloat64(MaxFloat64, []float64{float64(c.Rank())}, all); err != nil {
			return err
		}
		if all[0] != n-1 {
			t.Errorf("allreduce max = %v", all)
		}
		// Scan over int64.
		out := make([]byte, 8)
		if err := c.Scan(SumInt64, Int64Bytes([]int64{1}), out); err != nil {
			return err
		}
		if got := BytesInt64(out)[0]; got != int64(c.Rank()+1) {
			t.Errorf("rank %d scan = %d", c.Rank(), got)
		}
		return nil
	})
}

func TestAlltoall(t *testing.T) {
	const n = 4
	launch(t, n, func(c *Comm) error {
		send := make([]byte, n)
		for i := range send {
			send[i] = byte(c.Rank()*10 + i)
		}
		recv := make([]byte, n)
		if err := c.Alltoall(send, recv); err != nil {
			return err
		}
		for i := range recv {
			if recv[i] != byte(i*10+c.Rank()) {
				t.Errorf("rank %d recv[%d] = %d", c.Rank(), i, recv[i])
			}
		}
		return nil
	})
}

func TestCommDupIsolation(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			// Same tag on both communicators; receiver distinguishes by comm.
			if err := c.Send(1, 7, []byte{1}); err != nil {
				return err
			}
			return dup.Send(1, 7, []byte{2})
		}
		b := make([]byte, 1)
		if _, err := dup.Recv(0, 7, b); err != nil {
			return err
		}
		if b[0] != 2 {
			t.Errorf("dup comm received %d, want 2", b[0])
		}
		if _, err := c.Recv(0, 7, b); err != nil {
			return err
		}
		if b[0] != 1 {
			t.Errorf("parent comm received %d, want 1", b[0])
		}
		return nil
	})
}

func TestCommSplit(t *testing.T) {
	const n = 6
	launch(t, n, func(c *Comm) error {
		color := c.Rank() % 2
		sub, err := c.Split(color, -c.Rank()) // reverse order by key
		if err != nil {
			return err
		}
		if sub == nil {
			t.Errorf("rank %d got nil subcomm", c.Rank())
			return nil
		}
		if sub.Size() != 3 {
			t.Errorf("subcomm size %d", sub.Size())
		}
		// Keys are -rank, so higher parent rank sorts first.
		wantRank := map[int]int{4: 0, 2: 1, 0: 2, 5: 0, 3: 1, 1: 2}[c.Rank()]
		if sub.Rank() != wantRank {
			t.Errorf("rank %d -> subrank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// A bcast within the subcomm touches only members.
		buf := []byte{byte(sub.Rank())}
		if sub.Rank() == 0 {
			buf[0] = byte(100 + color)
		}
		if err := sub.Bcast(0, buf); err != nil {
			return err
		}
		if buf[0] != byte(100+color) {
			t.Errorf("rank %d subcomm bcast got %d", c.Rank(), buf[0])
		}
		return nil
	})
}

// The matcher (and the MPICH tag) key contexts in 16 bits, where the
// 32 767th communicator would be recoveryCtx: a world that has handed out
// every id below that fails the next creating call — Split (two colors and
// an undefined rank, one pair short), Dup, window creation, Shrink's memo —
// with the same typed error on every rank, and nothing hangs.
func TestContextIdsExhaustTyped(t *testing.T) {
	w := memWorld(4)
	w.nextCtx = core.MaxContext - 3 // two pairs left: 65 530 and 65 532
	isExhausted := func(err error) bool {
		var ce *core.Error
		return errors.As(err, &ce) && ce.Code == core.ErrInternal && strings.Contains(ce.Msg, "context ids")
	}
	rep, err := Launch(w, func(c *Comm) error {
		d, err := c.Dup()
		if err != nil {
			return err
		}
		if d.ctx+1 > core.MaxContext {
			return fmt.Errorf("Dup handed out context %d past MaxContext", d.ctx)
		}
		color := c.Rank() % 2
		if c.Rank() == 3 {
			color = -1
		}
		if sub, err := c.Split(color, 0); !isExhausted(err) || sub != nil {
			return fmt.Errorf("rank %d: Split one pair short = %v, %v; want the typed exhaustion error", c.Rank(), sub, err)
		}
		if _, err := c.Dup(); !isExhausted(err) {
			return fmt.Errorf("rank %d: Dup with no id left = %v", c.Rank(), err)
		}
		if _, err := c.WinCreate(8); !isExhausted(err) {
			return fmt.Errorf("rank %d: WinCreate with no id left = %v", c.Rank(), err)
		}
		// The parent still works.
		return c.Barrier()
	})
	if err == nil {
		err = rep.FirstErr()
	}
	if err != nil {
		t.Fatal(err)
	}
	if ctx := w.shrinkCtx("0|[1]"); ctx != ctxExhausted {
		t.Errorf("shrinkCtx with no id left = %d", ctx)
	}
}

func TestCommSplitUndefined(t *testing.T) {
	launch(t, 4, func(c *Comm) error {
		color := 0
		if c.Rank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("undefined color produced a communicator")
			}
			return nil
		}
		if sub == nil || sub.Size() != 3 {
			t.Errorf("rank %d: bad subcomm", c.Rank())
		}
		return nil
	})
}

func TestTranslate(t *testing.T) {
	launch(t, 4, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, 0)
		if err != nil {
			return err
		}
		world := c
		if got := sub.Translate(sub.Rank(), world); got != c.Rank() {
			t.Errorf("translate sub->world = %d, want %d", got, c.Rank())
		}
		return nil
	})
}

func TestPersistentRequests(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		const iters = 5
		if c.Rank() == 0 {
			buf := []byte{0}
			ps := c.SendInit(1, 3, buf)
			for i := 0; i < iters; i++ {
				buf[0] = byte(i)
				r, err := ps.Start()
				if err != nil {
					return err
				}
				if _, err := r.Wait(); err != nil {
					return err
				}
			}
			return nil
		}
		buf := []byte{0}
		pr := c.RecvInit(0, 3, buf)
		for i := 0; i < iters; i++ {
			r, err := pr.Start()
			if err != nil {
				return err
			}
			if _, err := r.Wait(); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				t.Errorf("iter %d got %d", i, buf[0])
			}
		}
		return nil
	})
}

func TestWaitAllWaitAny(t *testing.T) {
	launch(t, 3, func(c *Comm) error {
		if c.Rank() == 0 {
			var reqs []*Request
			bufs := make([][]byte, 2)
			for i := 1; i <= 2; i++ {
				bufs[i-1] = make([]byte, 1)
				r, err := c.Irecv(i, AnyTag, bufs[i-1])
				if err != nil {
					return err
				}
				reqs = append(reqs, r)
			}
			idx, st, err := WaitAny(reqs...)
			if err != nil {
				return err
			}
			if idx < 0 || st.Source < 1 {
				t.Errorf("WaitAny = %d, %+v", idx, st)
			}
			if _, err := WaitAll(reqs...); err != nil {
				return err
			}
			return nil
		}
		c.Compute(time.Duration(c.Rank()) * time.Millisecond)
		return c.Send(0, c.Rank(), []byte{byte(c.Rank())})
	})
}

// A nil entry and a consumed request are MPI_REQUEST_NULL to the multiple-
// completion calls, wherever they sit — slot 0 used to be dereferenced to
// park — and a consumed request keeps answering with its recorded outcome.
func TestWaitAnySkipsNilAndConsumed(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			for tag := 0; tag < 2; tag++ {
				c.Compute(time.Millisecond)
				if err := c.Send(0, tag, []byte{byte(tag + 1)}); err != nil {
					return err
				}
			}
			return nil
		}
		bufs := [2][]byte{make([]byte, 1), make([]byte, 1)}
		first, err := c.Irecv(1, 0, bufs[0])
		if err != nil {
			return err
		}
		second, err := c.Irecv(1, 1, bufs[1])
		if err != nil {
			return err
		}
		if idx, st, err := WaitAny(nil, first, second); err != nil || idx != 1 || st.Tag != 0 {
			t.Errorf("WaitAny(nil, first, second) = %d, %+v, %v; want index 1, tag 0", idx, st, err)
		}
		// first is consumed now: it must park on and return second.
		if idx, st, err := WaitAny(first, nil, second); err != nil || idx != 2 || st.Tag != 1 {
			t.Errorf("WaitAny(consumed, nil, second) = %d, %+v, %v; want index 2, tag 1", idx, st, err)
		}
		if idx, _, err := WaitAny(first, nil, second); err == nil || idx != -1 {
			t.Errorf("WaitAny over null requests = %d, %v; want -1 and an error", idx, err)
		}
		if done, err := WaitSome(first, nil, second); err == nil || done != nil {
			t.Errorf("WaitSome over null requests = %v, %v; want an error", done, err)
		}
		if ok, err := TestAll(first, nil, second); !ok || err != nil {
			t.Errorf("TestAll over null requests = %v, %v; want true", ok, err)
		}
		if st, err := first.Wait(); err != nil || st.Tag != 0 || !first.Done() || bufs[0][0] != 1 || bufs[1][0] != 2 {
			t.Errorf("consumed request: Wait = %+v, %v, payloads %v", st, err, bufs)
		}
		return nil
	})
}

func TestTestAllProgresses(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(time.Millisecond)
			return c.Send(1, 0, []byte{42})
		}
		r, err := c.Irecv(0, 0, make([]byte, 1))
		if err != nil {
			return err
		}
		for {
			ok, err := TestAll(r)
			if err != nil {
				return err
			}
			if ok {
				return nil
			}
			c.Compute(100 * time.Microsecond)
		}
	})
}

func TestCartRingShift(t *testing.T) {
	const n = 6
	launch(t, n, func(c *Comm) error {
		cart, err := c.CartCreate([]int{n}, []bool{true})
		if err != nil {
			return err
		}
		src, dst := cart.Shift(0, 1)
		if dst != (c.Rank()+1)%n || src != (c.Rank()-1+n)%n {
			t.Errorf("rank %d shift = (%d, %d)", c.Rank(), src, dst)
		}
		return nil
	})
}

func TestCart2D(t *testing.T) {
	launch(t, 6, func(c *Comm) error {
		cart, err := c.CartCreate([]int{2, 3}, []bool{false, true})
		if err != nil {
			return err
		}
		coords := cart.Coords(c.Rank())
		if got := cart.RankOf(coords); got != c.Rank() {
			t.Errorf("RankOf(Coords(%d)) = %d", c.Rank(), got)
		}
		// Non-periodic out-of-range is PROC_NULL.
		if cart.RankOf([]int{-1, 0}) != -1 {
			t.Error("non-periodic dimension wrapped")
		}
		// Periodic wraps.
		if cart.RankOf([]int{1, 3}) != cart.RankOf([]int{1, 0}) {
			t.Error("periodic dimension did not wrap")
		}
		return nil
	})
}

func TestDims2(t *testing.T) {
	for _, tc := range []struct{ n, a, b int }{{1, 1, 1}, {6, 2, 3}, {12, 3, 4}, {7, 1, 7}, {16, 4, 4}} {
		a, b := Dims2(tc.n)
		if a != tc.a || b != tc.b {
			t.Errorf("Dims2(%d) = (%d,%d), want (%d,%d)", tc.n, a, b, tc.a, tc.b)
		}
	}
}

func TestTypedSendRecvVector(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		// A column of a 4x4 float64 matrix: 4 blocks of 1 element, stride 4.
		col := Vector{Count: 4, BlockLen: 1, Stride: 4, Of: Float64}
		if c.Rank() == 0 {
			m := make([]float64, 16)
			for i := range m {
				m[i] = float64(i)
			}
			return c.SendTyped(1, 0, col, 1, Float64Bytes(m))
		}
		out := make([]byte, 16*8)
		if _, err := c.RecvTyped(0, 0, col, 1, out); err != nil {
			return err
		}
		dec := BytesFloat64(out)
		// Column 0 of the matrix: elements 0, 4, 8, 12 land at strided slots.
		for i := 0; i < 4; i++ {
			if dec[i*4] != float64(i*4) {
				t.Errorf("col[%d] = %v", i, dec[i*4])
			}
		}
		return nil
	})
}

// Property: Pack followed by Unpack is the identity on the packed view for
// every derived datatype shape.
func TestDatatypePackUnpackProperty(t *testing.T) {
	prop := func(raw []byte, count, blockLen, stride uint8) bool {
		cnt := int(count%4) + 1
		bl := int(blockLen%3) + 1
		st := bl + int(stride%3)
		dt := Vector{Count: cnt, BlockLen: bl, Stride: st, Of: Byte}
		need := dt.Extent()
		src := make([]byte, need)
		copy(src, raw)
		packed := make([]byte, dt.Size())
		dt.Pack(packed, src)
		dst := make([]byte, need)
		dt.Unpack(dst, packed)
		packed2 := make([]byte, dt.Size())
		dt.Pack(packed2, dst)
		return bytes.Equal(packed, packed2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedDatatype(t *testing.T) {
	dt := Indexed{BlockLens: []int{2, 1, 3}, Displs: []int{0, 4, 6}, Of: Byte}
	if dt.Size() != 6 || dt.Extent() != 9 {
		t.Fatalf("size=%d extent=%d", dt.Size(), dt.Extent())
	}
	src := []byte{'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i'}
	packed := make([]byte, 6)
	dt.Pack(packed, src)
	if string(packed) != "abeghi" {
		t.Fatalf("packed = %q", packed)
	}
	dst := make([]byte, 9)
	dt.Unpack(dst, packed)
	if dst[0] != 'a' || dst[4] != 'e' || dst[8] != 'i' || dst[2] != 0 {
		t.Fatalf("unpacked = %q", dst)
	}
}

func TestStructDatatype(t *testing.T) {
	// struct { x float64; pad; n int32 } laid out with displacements.
	dt := StructType{Fields: []StructField{
		{Displ: 0, Count: 1, Of: Float64},
		{Displ: 12, Count: 1, Of: Int32},
	}}
	if dt.Size() != 12 || dt.Extent() != 16 {
		t.Fatalf("size=%d extent=%d", dt.Size(), dt.Extent())
	}
	src := make([]byte, 16)
	copy(src, Float64Bytes([]float64{3.5}))
	src[12] = 42
	packed := make([]byte, 12)
	dt.Pack(packed, src)
	dst := make([]byte, 16)
	dt.Unpack(dst, packed)
	if !bytes.Equal(dst[:8], src[:8]) || dst[12] != 42 {
		t.Fatal("struct roundtrip failed")
	}
}

func TestContigDatatype(t *testing.T) {
	dt := Contig{Count: 3, Of: Int32}
	if dt.Size() != 12 || dt.Extent() != 12 {
		t.Fatalf("size=%d extent=%d", dt.Size(), dt.Extent())
	}
}

func TestPackUnpackComm(t *testing.T) {
	launch(t, 1, func(c *Comm) error {
		dt := Vector{Count: 2, BlockLen: 1, Stride: 2, Of: Byte}
		src := []byte{1, 2, 3}
		packed := c.Pack(dt, 1, src)
		if len(packed) != 2 || packed[0] != 1 || packed[1] != 3 {
			t.Errorf("packed = %v", packed)
		}
		dst := make([]byte, 3)
		c.Unpack(dt, 1, packed, dst)
		if dst[0] != 1 || dst[2] != 3 {
			t.Errorf("unpacked = %v", dst)
		}
		return nil
	})
}

func TestReportAccounts(t *testing.T) {
	rep := launch(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 50))
		}
		_, err := c.Recv(0, 0, make([]byte, 50))
		return err
	})
	if rep.Acct.Count["send"] != 1 || rep.Acct.Count["recv"] != 1 {
		t.Fatalf("counters: %+v", rep.Acct.Count)
	}
	if rep.MaxRankElapsed == 0 {
		t.Fatal("no elapsed time recorded")
	}
}

func TestDeadlockSurfacesAsError(t *testing.T) {
	_, err := Launch(memWorld(2), func(c *Comm) error {
		// Both ranks receive; nobody sends.
		_, err := c.Recv(AnySource, AnyTag, make([]byte, 1))
		return err
	})
	if err == nil {
		t.Fatal("deadlocked program reported success")
	}
}

// A panic in one rank's body unwinds through Launch on the caller's
// goroutine; Launch must still reap the other ranks — parked in Recv, or
// never dispatched — so their coroutines are not leaked.
func TestLaunchReapsRanksWhenBodyPanics(t *testing.T) {
	for _, lanes := range []int{0, 4} {
		t.Run(fmt.Sprintf("lanes%d", lanes), func(t *testing.T) {
			before := runtime.NumGoroutine()
			func() {
				defer func() {
					if r := recover(); r != "rank 2 exploded" {
						t.Fatalf("recovered %v, want the rank body's panic", r)
					}
				}()
				Launch(memWorldLanes(8, lanes), func(c *Comm) error {
					if c.Rank() == 2 {
						c.Compute(time.Microsecond)
						panic("rank 2 exploded")
					}
					_, err := c.Recv(AnySource, AnyTag, make([]byte, 1))
					return err
				})
				t.Fatal("Launch returned past a panicking rank")
			}()
			for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
				runtime.Gosched()
			}
			if g := runtime.NumGoroutine(); g > before {
				t.Fatalf("goroutines leaked: %d before, %d after", before, g)
			}
		})
	}
}

func TestLaunchDeterministic(t *testing.T) {
	run := func() time.Duration {
		rep, err := Launch(memWorld(4), func(c *Comm) error {
			buf := make([]byte, 64)
			if err := c.Bcast(0, buf); err != nil {
				return err
			}
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxRankElapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// --- additional edge-case coverage ---

func TestRendezvousTruncation(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 4000)) // > mem fabric eager 180
		}
		buf := make([]byte, 100)
		st, err := c.Recv(0, 0, buf)
		if err == nil {
			t.Error("rendezvous truncation not reported")
		}
		if st.Count != 100 {
			t.Errorf("count = %d", st.Count)
		}
		return nil
	})
}

func TestRecvBufferLargerThanMessage(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, []byte{1, 2, 3})
		}
		buf := make([]byte, 100)
		st, err := c.Recv(0, 0, buf)
		if err != nil {
			return err
		}
		if st.Count != 3 {
			t.Errorf("count = %d, want 3", st.Count)
		}
		return nil
	})
}

func TestCancelThenMatchingSendGoesToNextRecv(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Compute(time.Millisecond)
			return c.Send(1, 0, []byte{9})
		}
		first, err := c.Irecv(0, 0, make([]byte, 1))
		if err != nil {
			return err
		}
		if err := first.Cancel(); err != nil {
			return err
		}
		if !first.Cancelled() {
			t.Error("request not marked cancelled")
		}
		buf := make([]byte, 1)
		if _, err := c.Recv(0, 0, buf); err != nil {
			return err
		}
		if buf[0] != 9 {
			t.Errorf("second recv got %d", buf[0])
		}
		return nil
	})
}

func TestBufferAttachDetach(t *testing.T) {
	launch(t, 2, func(c *Comm) error {
		if c.Rank() != 0 {
			_, err := c.Recv(0, 0, make([]byte, 8))
			return err
		}
		c.BufferAttach(512)
		if err := c.Bsend(1, 0, make([]byte, 8)); err != nil {
			return err
		}
		if n := c.BufferDetach(); n != 512 {
			t.Errorf("detach = %d", n)
		}
		// After detach, buffered sends fail again.
		if err := c.Bsend(1, 1, make([]byte, 8)); err == nil {
			t.Error("Bsend succeeded with no attached buffer")
		}
		return nil
	})
}

func TestSendrecvSelf(t *testing.T) {
	launch(t, 1, func(c *Comm) error {
		out := []byte{42}
		in := make([]byte, 1)
		st, err := c.Sendrecv(0, 0, out, 0, 0, in)
		if err != nil {
			return err
		}
		if in[0] != 42 || st.Source != 0 {
			t.Errorf("self sendrecv: %d, %+v", in[0], st)
		}
		return nil
	})
}

func TestReportProtocolErrors(t *testing.T) {
	rep, err := Launch(memWorld(2), func(c *Comm) error {
		if c.Rank() == 0 {
			// Ready-mode send with no posted receive: erroneous program,
			// recorded as a protocol error at the receiver.
			if err := c.Rsend(1, 0, []byte{1}); err != nil {
				return err
			}
			return nil
		}
		c.Compute(time.Millisecond)
		_, err := c.Recv(0, 0, make([]byte, 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Protocol) == 0 {
		t.Fatal("ready-mode violation not surfaced in Report.Protocol")
	}
}

func TestCollectivesOnSizeOneComm(t *testing.T) {
	launch(t, 1, func(c *Comm) error {
		buf := []byte{7}
		if err := c.Bcast(0, buf); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		all := make([]byte, 1)
		if err := c.Allgather([]byte{3}, all); err != nil {
			return err
		}
		if all[0] != 3 {
			t.Errorf("allgather = %v", all)
		}
		sum := make([]float64, 1)
		if err := c.AllreduceFloat64(SumFloat64, []float64{5}, sum); err != nil {
			return err
		}
		if sum[0] != 5 {
			t.Errorf("allreduce = %v", sum)
		}
		recv := make([]byte, 1)
		if err := c.Alltoall([]byte{8}, recv); err != nil {
			return err
		}
		if recv[0] != 8 {
			t.Errorf("alltoall = %v", recv)
		}
		return nil
	})
}
