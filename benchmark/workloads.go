package main

import (
	"fmt"
	"time"

	"repro/internal/workload"
	"repro/mpi"
	"repro/platform/registry"
)

// A benchWorkload is one fixed full-stack job: a backend spec plus the
// workload config recorded on it. Ops is the number of SLO operations one
// repetition performs; it is fixed by the config, so a change that sends
// fewer messages shows as faster, not as less work.
type benchWorkload struct {
	Name string
	Spec registry.Spec
	Cfg  workload.Config
	// opsPerStep is the SLO operations one step contributes (ranks for the
	// bulk-synchronous patterns, clients for rpc, 1 for ping-pong).
	opsPerStep int
	scale      float64 // the step-count multiplier the workload was built with
}

func (b benchWorkload) ops() int { return b.opsPerStep * b.Cfg.Steps }

// rpcThinkRate is the rpc_meiko clients' mean think rate in requests per
// virtual second per client. With no think time the Meiko server saturates
// at about 6.7 k requests of 1 KiB per virtual second; 128 clients thinking
// 25 ms on average offer about 5 k, which keeps it about 75 % busy, so
// requests queue without the backlog growing.
const rpcThinkRate = 40.0

// workloads builds the six fixed workloads for seed. scale shrinks the
// step counts (tests run at a small fraction; the driver runs at 1).
func workloads(seed int64, scale float64) []benchWorkload {
	steps := func(n int) int {
		if s := int(float64(n) * scale); s >= 2 {
			return s
		}
		return 2
	}
	ws := []benchWorkload{
		{Name: "pingpong_meiko", opsPerStep: 1,
			Spec: registry.Spec{Platform: "meiko", Impl: "lowlatency", Ranks: 2},
			Cfg:  workload.Config{Pattern: "pingpong", Steps: steps(50_000), Bytes: 1}},
		{Name: "halo_mem", opsPerStep: 256,
			Spec: registry.Spec{Platform: "mem", Ranks: 256},
			Cfg:  workload.Config{Pattern: "halo", Steps: steps(100), Bytes: 1024}},
		{Name: "halo_tcp", opsPerStep: 64,
			Spec: registry.Spec{Platform: "cluster", Transport: "tcp", Ranks: 64},
			Cfg:  workload.Config{Pattern: "halo", Steps: steps(150), Bytes: 1024}},
		{Name: "rpc_meiko", opsPerStep: 128,
			Spec: registry.Spec{Platform: "meiko", Impl: "lowlatency", Ranks: 129},
			Cfg:  workload.Config{Pattern: "rpc-closed", Steps: steps(150), Bytes: 1024, Rate: rpcThinkRate}},
		{Name: "allreduce_shard", opsPerStep: 1024,
			Spec: registry.Spec{Platform: "mem", Ranks: 1024, Lanes: 1024},
			Cfg:  workload.Config{Pattern: "allreduce", Steps: steps(32), Bytes: 1024}},
		{Name: "shuffle_udp", opsPerStep: 16,
			Spec: registry.Spec{Platform: "cluster", Transport: "udp", Ranks: 16},
			Cfg:  workload.Config{Pattern: "shuffle", Steps: steps(64), Bytes: 32 << 10}},
	}
	for i := range ws {
		w := &ws[i]
		w.scale = scale
		w.Spec.Seed, w.Spec.Workload = seed, w.Cfg.Pattern
		w.Cfg.Seed, w.Cfg.Ranks = seed, w.Spec.Ranks
		w.Cfg.Backend, w.Cfg.Lanes = w.Spec.Key(), w.Spec.Lanes
	}
	return ws
}

func init() {
	workload.Register(workload.Pattern{Name: "pingpong", SLO: workload.OpStep, Body: patternPingPong,
		Doc: "two-rank ping-pong: one round trip per step, no collectives"})
	workload.Register(workload.Pattern{Name: "rpc-closed", SLO: workload.OpRequest, Body: patternRPCClosed,
		Doc: "closed-loop RPC fan-in: each client thinks, sends, and blocks on the reply; rank 0 serves"})
}

// patternPingPong bounces a Bytes-sized message between ranks 0 and 1;
// rank 0 records each round trip. Nothing is pre-posted or queued, so the
// matcher, the pools and the collective layer are bypassed.
func patternPingPong(e *workload.Env) error {
	c := e.C
	if c.Size() != 2 {
		return fmt.Errorf("workload pingpong: needs exactly 2 ranks, have %d", c.Size())
	}
	n := e.Cfg.Bytes
	data, buf := make([]byte, n), make([]byte, n)
	peer := 1 - c.Rank()
	for i := 0; i < e.Cfg.Steps; i++ {
		if c.Rank() == 0 {
			start := c.Wtime()
			if err := c.Send(peer, 0, data); err != nil {
				return err
			}
			if _, err := c.Recv(peer, 0, buf); err != nil {
				return err
			}
			e.Record(workload.OpStep, peer, 0, n, start)
			continue
		}
		if _, err := c.Recv(peer, 0, buf); err != nil {
			return err
		}
		if err := c.Send(peer, 0, data); err != nil {
			return err
		}
	}
	return nil
}

// patternRPCClosed is the closed-loop counterpart of the in-tree rpc
// pattern: a client thinks for a seeded exponential time, sends a request,
// blocks on the reply and records the latency from the send. The server
// probes AnySource, so requests wait in the unexpected queue while it is
// busy, and that queueing is what the latency tail measures.
func patternRPCClosed(e *workload.Env) error {
	c := e.C
	size := c.Size()
	if size < 2 {
		return fmt.Errorf("workload rpc-closed: needs at least 2 ranks, have %d", size)
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
			e.Record(workload.OpServe, st.Source, st.Tag, st.Count, start)
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
		e.Record(workload.OpRequest, server, i, n, start)
	}
	return nil
}
