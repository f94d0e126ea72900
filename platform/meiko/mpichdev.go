package meiko

import (
	"time"

	"repro/internal/core"
	"repro/internal/meiko"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MPICH baseline: MPI over the tport widget, as shipped in the ANL/MSU
// MPICH distribution for the CS/2. The tport performs tag matching on the
// Elan co-processor, so receives progress in the background — at the cost
// of Elan processing time and SPARC<->Elan synchronization, plus MPICH's
// per-call bookkeeping, which together add the 158 µs the paper measures
// over the raw widget (Figure 2).

// MPI (context, source, tag) triples are encoded into the widget's 64-bit
// tag space, with mask bits expressing MPI's wildcards:
//
//	bit 63    : synchronous-mode flag (ignored in matching)
//	bit 62    : acknowledgement channel (always matched)
//	bits 40-55: context id
//	bits 24-39: source rank
//	bits  0-23: user tag
const (
	mpichSyncBit = uint64(1) << 63
	mpichAckBit  = uint64(1) << 62
	mpichCtxSh   = 40
	mpichSrcSh   = 24
	mpichTagMask = uint64(1)<<24 - 1
	mpichCtxMask = uint64(0xFFFF) << mpichCtxSh
	mpichSrcMask = uint64(0xFFFF) << mpichSrcSh
)

func encodeMPICHTag(ctx, src, tag int) uint64 {
	return uint64(ctx)<<mpichCtxSh | uint64(src)<<mpichSrcSh | uint64(tag)&mpichTagMask
}

// recvPattern builds the (tag, mask) pair for a receive with wildcards.
func recvPattern(ctx, src, tag int) (uint64, uint64) {
	want := uint64(ctx) << mpichCtxSh
	mask := mpichAckBit | mpichCtxMask // never match acks; context is exact
	if src != core.AnySource {
		want |= uint64(src) << mpichSrcSh
		mask |= mpichSrcMask
	}
	if tag != core.AnyTag {
		want |= uint64(tag) & mpichTagMask
		mask |= mpichTagMask
	}
	return want, mask
}

// MPICHCosts are the baseline's SPARC-side per-call charges, calibrated so
// a 1-byte round trip costs the paper's 210 µs (tport's 52 plus 158).
type MPICHCosts struct {
	SendOverhead sim.Duration
	RecvOverhead sim.Duration
}

// DefaultMPICHCosts reproduces Figure 2's MPICH curve.
func DefaultMPICHCosts() MPICHCosts {
	return MPICHCosts{
		SendOverhead: 40 * time.Microsecond,
		RecvOverhead: 39 * time.Microsecond,
	}
}

// MPICHEndpoint implements core.Endpoint over the tport widget.
type MPICHEndpoint struct {
	m     *meiko.Machine
	node  *meiko.Node
	port  *meiko.Tport
	rank  int
	size  int
	acct  *core.Acct
	costs MPICHCosts

	ops map[*core.Request]*mpichOp

	bufCap, bufUsed int

	trace *trace.Log
}

// SetTrace attaches a timeline log (the profiling interface).
func (e *MPICHEndpoint) SetTrace(l *trace.Log) { e.trace = l }

// TraceLog returns the attached timeline log (nil when tracing is off).
func (e *MPICHEndpoint) TraceLog() *trace.Log { return e.trace }

func (e *MPICHEndpoint) trc(kind trace.Kind, peer, tag, bytes int, note string) {
	if e.trace == nil {
		return
	}
	e.trace.Add(trace.Event{T: e.node.S.Now(), Rank: e.rank, Kind: kind, Peer: peer, Tag: tag, Bytes: bytes, Note: note})
}

type mpichOp struct {
	treq   *meiko.TportReq
	ackReq *meiko.TportReq // posted for synchronous-mode sends
	isRecv bool
	count  int
}

func newMPICHEndpoint(m *meiko.Machine, rank, size int) *MPICHEndpoint {
	return &MPICHEndpoint{
		m:     m,
		node:  m.Nodes[rank],
		port:  m.NewTport(m.Nodes[rank]),
		rank:  rank,
		size:  size,
		acct:  core.NewAcct(),
		costs: DefaultMPICHCosts(),
		ops:   make(map[*core.Request]*mpichOp),
	}
}

var _ core.Endpoint = (*MPICHEndpoint)(nil)

// Rank implements core.Endpoint.
func (e *MPICHEndpoint) Rank() int { return e.rank }

// Size implements core.Endpoint.
func (e *MPICHEndpoint) Size() int { return e.size }

// Acct implements core.Endpoint.
func (e *MPICHEndpoint) Acct() *core.Acct { return e.acct }

// Scheduler implements core.Endpoint.
func (e *MPICHEndpoint) Scheduler() *sim.Scheduler { return e.node.S }

// Port exposes the underlying tport (instrumentation).
func (e *MPICHEndpoint) Port() *meiko.Tport { return e.port }

// Isend implements core.Endpoint.
func (e *MPICHEndpoint) Isend(p *sim.Proc, dst, tag, ctx int, mode core.Mode, data []byte) (*core.Request, error) {
	if dst < 0 || dst >= e.size {
		return nil, core.Errorf(core.ErrInternal, "send to invalid rank %d (size %d)", dst, e.size)
	}
	e.acct.Spend(p, sim.Overhead, e.costs.SendOverhead)
	e.acct.Add(ctrSend, 1)
	e.trc(trace.SendStart, dst, tag, len(data), mode.String())
	env := core.Envelope{Source: e.rank, Dest: dst, Tag: tag, Context: ctx, Count: len(data), Mode: mode}
	req := core.NewRequest(false, env, data)
	op := &mpichOp{count: len(data)}
	e.ops[req] = op

	wtag := encodeMPICHTag(ctx, e.rank, tag)
	switch mode {
	case core.ModeSync:
		wtag |= mpichSyncBit
		// Post the ack receive before sending, so the ack cannot be lost.
		ackTag := mpichAckBit | encodeMPICHTag(ctx, dst, tag)
		op.ackReq = e.port.IRecv(p, ackTag, ^uint64(0)&^mpichSyncBit, nil)
	case core.ModeBuffered:
		if e.bufUsed+len(data) > e.bufCap {
			delete(e.ops, req)
			return nil, core.Errorf(core.ErrBuffer, "buffered send of %d bytes exceeds attached buffer (%d of %d used)", len(data), e.bufUsed, e.bufCap)
		}
		e.bufUsed += len(data)
		e.acct.Spend(p, sim.Copy, sim.Duration(len(data))*e.m.Costs.CopyPerByte)
	}
	// Ready mode: MPICH's CS/2 device treats MPI_Rsend as MPI_Send.
	op.treq = e.port.ISend(p, dst, wtag, data)
	if mode == core.ModeBuffered {
		n := len(data)
		op.treq.OnDone = func() {
			e.bufUsed -= n
			if e.bufUsed < 0 {
				e.bufUsed = 0
			}
		}
		// Buffered sends are complete as soon as the data is captured.
		req.Complete(core.Status{Source: dst, Tag: tag, Count: n}, nil)
	}
	return req, nil
}

// Irecv implements core.Endpoint.
func (e *MPICHEndpoint) Irecv(p *sim.Proc, src, tag, ctx int, buf []byte) (*core.Request, error) {
	if src != core.AnySource && (src < 0 || src >= e.size) {
		return nil, core.Errorf(core.ErrInternal, "receive from invalid rank %d (size %d)", src, e.size)
	}
	e.acct.Add(ctrRecv, 1)
	e.trc(trace.RecvPost, src, tag, len(buf), "")
	want, mask := recvPattern(ctx, src, tag)
	req := core.NewRequest(true, core.Envelope{Source: src, Tag: tag, Context: ctx}, buf)
	e.ops[req] = &mpichOp{isRecv: true, treq: e.port.IRecv(p, want, mask, buf)}
	return req, nil
}

// finalize turns a completed tport operation into MPI request state.
func (e *MPICHEndpoint) finalize(p *sim.Proc, r *core.Request, op *mpichOp) (core.Status, error) {
	defer delete(e.ops, r)
	if op.isRecv {
		// MPICH's receive-side bookkeeping (envelope decode, queue and
		// status updates) runs after the message arrives — on the
		// critical path, unlike the posting cost.
		e.acct.Spend(p, sim.Overhead, e.costs.RecvOverhead)
		full := op.treq.Tag
		src := int((full & mpichSrcMask) >> mpichSrcSh)
		tag := int(full & mpichTagMask)
		st := core.Status{Source: src, Tag: tag, Count: op.treq.N}
		var err error
		if op.treq.Sent > op.treq.N {
			err = core.Truncated(op.treq.Sent, len(r.Buf))
		}
		if full&mpichSyncBit != 0 {
			// Acknowledge the synchronous send.
			ctx := int((full & mpichCtxMask) >> mpichCtxSh)
			ackTag := mpichAckBit | encodeMPICHTag(ctx, e.rank, tag)
			e.port.Send(p, src, ackTag, nil)
		}
		r.Complete(st, err)
		e.trc(trace.RecvDone, st.Source, st.Tag, st.Count, "")
		return st, err
	}
	if op.ackReq != nil {
		e.port.Wait(p, op.ackReq)
	}
	st := core.Status{Source: r.Env.Dest, Tag: r.Env.Tag, Count: op.count}
	r.Complete(st, nil)
	e.trc(trace.SendDone, r.Env.Dest, r.Env.Tag, op.count, "")
	return st, nil
}

// Wait implements core.Endpoint.
func (e *MPICHEndpoint) Wait(p *sim.Proc, r *core.Request) (core.Status, error) {
	op := e.ops[r]
	if op == nil {
		return r.Status(), r.Err()
	}
	if r.Done() && op.isRecv == false && op.ackReq == nil {
		delete(e.ops, r)
		return r.Status(), r.Err()
	}
	e.port.Wait(p, op.treq)
	return e.finalize(p, r, op)
}

// Recv implements core.Endpoint: Irecv then Wait.
func (e *MPICHEndpoint) Recv(p *sim.Proc, src, tag, ctx int, buf []byte) (core.Status, error) {
	r, err := e.Irecv(p, src, tag, ctx, buf)
	if err != nil {
		return core.Status{}, err
	}
	return e.Wait(p, r)
}

// Sendrecv implements core.Endpoint: Irecv, Isend, then a Wait on each.
func (e *MPICHEndpoint) Sendrecv(p *sim.Proc, dst, sendTag int, data []byte, src, recvTag, ctx int, buf []byte) (core.Status, error) {
	return core.Sendrecv(e, p, dst, sendTag, data, src, recvTag, ctx, buf, nil)
}

// Test implements core.Endpoint.
func (e *MPICHEndpoint) Test(p *sim.Proc, r *core.Request) (core.Status, bool, error) {
	op := e.ops[r]
	if op == nil {
		return r.Status(), r.Done(), r.Err()
	}
	if !op.treq.Done() {
		return core.Status{}, false, nil
	}
	if !op.isRecv && op.ackReq != nil && !op.ackReq.Done() {
		return core.Status{}, false, nil
	}
	st, err := e.finalize(p, r, op)
	return st, true, err
}

// Probe implements core.Endpoint: a blocking probe against the Elan's
// unexpected queue.
func (e *MPICHEndpoint) Probe(p *sim.Proc, src, tag, ctx int) (core.Status, error) {
	for {
		st, ok, err := e.Iprobe(p, src, tag, ctx)
		if err != nil || ok {
			return st, err
		}
		e.port.WaitArrival(p)
	}
}

// Iprobe implements core.Endpoint.
func (e *MPICHEndpoint) Iprobe(p *sim.Proc, src, tag, ctx int) (core.Status, bool, error) {
	want, mask := recvPattern(ctx, src, tag)
	psrc, n, full, ok := e.port.Probe(p, want, mask)
	if !ok {
		return core.Status{}, false, nil
	}
	_ = psrc
	return core.Status{Source: int((full & mpichSrcMask) >> mpichSrcSh), Tag: int(full & mpichTagMask), Count: n}, true, nil
}

// Cancel implements core.Endpoint for unmatched posted receives.
func (e *MPICHEndpoint) Cancel(p *sim.Proc, r *core.Request) (bool, error) {
	op := e.ops[r]
	if op == nil || !op.isRecv {
		return false, core.Errorf(core.ErrInternal, "cancel of send requests is not supported")
	}
	if !e.port.CancelRecv(op.treq) {
		return false, nil
	}
	r.Complete(core.Status{}, nil)
	delete(e.ops, r)
	return true, nil
}

// Finalize implements core.Endpoint. The tport widget progresses sends on
// the Elan autonomously, so there is nothing to drive.
func (e *MPICHEndpoint) Finalize(p *sim.Proc) {}

// BufferAttach implements core.Endpoint.
func (e *MPICHEndpoint) BufferAttach(n int) { e.bufCap = n }

// BufferDetach implements core.Endpoint.
func (e *MPICHEndpoint) BufferDetach() int {
	n := e.bufCap
	e.bufCap = 0
	return n
}
