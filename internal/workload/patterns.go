package workload

import (
	"fmt"
	"time"

	"repro/mpi"
)

// The canonical patterns. Each registers at init; Names() is the CLI
// contract. Every body is deterministic given (Config, rank): message
// payloads and rpc think times come from the rank's seeded RNG, and all
// waiting happens on the virtual clock.
func init() {
	Register(Pattern{Name: "allreduce", SLO: OpCollective, Body: allreduceLoop,
		Doc: "data-parallel training loop: per-step compute, then a gradient allreduce"})
	Register(Pattern{Name: "halo", SLO: OpStep, Body: halo,
		Doc: "2-D periodic halo exchange: four Sendrecv legs per sweep plus interior compute"})
	Register(Pattern{Name: "rpc", SLO: OpRequest, Body: rpc,
		Doc: "closed-loop RPC fan-in: each client thinks, sends, and blocks on the reply; rank 0 serves"})
	Register(Pattern{Name: "shuffle", SLO: OpCollective, Body: shuffle,
		Doc: "all-to-all shuffle rounds (samplesort/repartition traffic)"})
	Register(Pattern{Name: "stencil", SLO: OpStep, Body: stencil,
		Doc: "1-D ring stencil: boundary exchange both ways, compute, periodic residual allreduce"})
}

// fill draws a payload from the rank's RNG so recordings consume the
// seeded stream even though the engine never inspects bytes.
func (e *Env) fill(b []byte) {
	_, _ = e.RNG.Read(b)
}

// halo sweeps a 2-D periodic Cartesian grid: each step exchanges a
// boundary payload with all four neighbors via Sendrecv (one OpExchange
// per leg), charges the interior compute, and closes with an OpStep.
func halo(e *Env) error {
	c := e.C
	py, px := mpi.Dims2(c.Size())
	cart, err := c.CartCreate([]int{py, px}, []bool{true, true})
	if err != nil {
		return err
	}
	n := e.Cfg.Bytes
	out := make([]byte, n)
	in := make([]byte, n)
	e.fill(out)
	for step := 0; step < e.Cfg.Steps; step++ {
		start := c.Wtime()
		for dim := 0; dim < 2; dim++ {
			for _, disp := range []int{1, -1} {
				src, dst := cart.Shift(dim, disp)
				if dst == c.Rank() {
					continue // 1-wide periodic dimension: no neighbor
				}
				xs := c.Wtime()
				if _, err := c.Sendrecv(dst, step, out, src, step, in); err != nil {
					return err
				}
				e.Record(OpExchange, dst, step, n, xs)
			}
		}
		c.Compute(e.Cfg.Compute)
		e.Record(OpStep, -1, step, 4*n, start)
	}
	return c.Barrier()
}

// stencil iterates a 1-D periodic ring: exchange one boundary plane with
// each neighbor, charge the sweep compute, and every residualEvery steps
// run a one-element allreduce standing in for the convergence check.
const residualEvery = 8

func stencil(e *Env) error {
	c := e.C
	size, me := c.Size(), c.Rank()
	left, right := (me-1+size)%size, (me+1)%size
	n := e.Cfg.Bytes
	out := make([]byte, n)
	in := make([]byte, n)
	e.fill(out)
	residual, total := []float64{float64(me + 1)}, make([]float64, 1)
	for step := 0; step < e.Cfg.Steps; step++ {
		start := c.Wtime()
		if left != me {
			xs := c.Wtime()
			if _, err := c.Sendrecv(left, step, out, right, step, in); err != nil {
				return err
			}
			e.Record(OpExchange, left, step, n, xs)
			xs = c.Wtime()
			if _, err := c.Sendrecv(right, step, out, left, step, in); err != nil {
				return err
			}
			e.Record(OpExchange, right, step, n, xs)
		}
		c.Compute(e.Cfg.Compute)
		if (step+1)%residualEvery == 0 {
			xs := c.Wtime()
			if err := c.AllreduceFloat64(mpi.SumFloat64, residual, total); err != nil {
				return err
			}
			e.Record(OpCollective, -1, step, 8, xs)
		}
		e.Record(OpStep, -1, step, 2*n, start)
	}
	return c.Barrier()
}

// shuffle runs all-to-all rounds: every rank scatters a Bytes block to
// each peer (samplesort/repartition traffic), then charges the
// repartition compute.
func shuffle(e *Env) error {
	c := e.C
	size := c.Size()
	n := e.Cfg.Bytes
	send := make([]byte, size*n)
	recv := make([]byte, size*n)
	e.fill(send)
	for step := 0; step < e.Cfg.Steps; step++ {
		start := c.Wtime()
		if err := c.Alltoall(send, recv); err != nil {
			return err
		}
		e.Record(OpCollective, -1, step, size*n, start)
		c.Compute(e.Cfg.Compute)
		e.Record(OpStep, -1, step, size*n, start)
	}
	return c.Barrier()
}

// allreduceLoop models a data-parallel training step: compute the local
// gradient, then allreduce it. The collective is the SLO op.
func allreduceLoop(e *Env) error {
	c := e.C
	elems := e.Cfg.Bytes / 8
	if elems < 1 {
		elems = 1
	}
	grad, sum := make([]float64, elems), make([]float64, elems)
	for i := range grad {
		grad[i] = e.RNG.Float64()
	}
	for step := 0; step < e.Cfg.Steps; step++ {
		start := c.Wtime()
		c.Compute(e.Cfg.Compute)
		xs := c.Wtime()
		if err := c.AllreduceFloat64(mpi.SumFloat64, grad, sum); err != nil {
			return err
		}
		e.Record(OpCollective, -1, step, elems*8, xs)
		e.Record(OpStep, -1, step, elems*8, start)
	}
	return c.Barrier()
}

// rpc drives many closed-loop clients against a single server (rank 0): a
// client thinks for a seeded exponential time (mean 1/Rate), sends a
// request, blocks on the reply and records the latency from the send. The
// server probes AnySource, so requests wait in the unexpected queue while
// it is busy, and that queueing is what the latency tail measures.
func rpc(e *Env) error {
	c := e.C
	size := c.Size()
	if size < 2 {
		return fmt.Errorf("workload rpc: needs at least 2 ranks, have %d", size)
	}
	const server = 0
	n := e.Cfg.Bytes
	if c.Rank() == server {
		reply, buf := make([]byte, n), make([]byte, n)
		pend := make([]*mpi.Request, 0, e.Cfg.Steps*(size-1))
		for k := 0; k < cap(pend); k++ {
			st, err := c.Probe(mpi.AnySource, mpi.AnyTag)
			if err != nil {
				return err
			}
			start := c.Wtime()
			if _, err := c.Recv(st.Source, st.Tag, buf[:st.Count]); err != nil {
				return err
			}
			c.Compute(e.Cfg.Compute)
			r, err := c.Isend(st.Source, st.Tag, reply)
			if err != nil {
				return err
			}
			pend = append(pend, r)
			e.Record(OpServe, st.Source, st.Tag, st.Count, start)
		}
		_, err := mpi.WaitAll(pend...)
		return err
	}
	req, in := make([]byte, n), make([]byte, n)
	for i := 0; i < e.Cfg.Steps; i++ {
		c.Compute(time.Duration(e.RNG.ExpFloat64() / e.Cfg.Rate * float64(time.Second)))
		start := c.Wtime()
		rr, err := c.Irecv(server, i, in)
		if err != nil {
			return err
		}
		if err := c.Send(server, i, req); err != nil {
			return err
		}
		if _, err := rr.Wait(); err != nil {
			return err
		}
		e.Record(OpRequest, server, i, n, start)
	}
	return nil
}
