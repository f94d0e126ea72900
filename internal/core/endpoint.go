package core

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Endpoint is the per-rank device interface the mpi package drives. The
// poll-model Engine (the paper's low-latency design) implements it, and so
// does the MPICH-over-tport baseline on the Meiko — they differ exactly in
// where matching runs (main CPU vs communications co-processor), which is
// the comparison of Figure 2.
//
// Wait, a Test that reports done and a Cancel that reports true consume the
// request, like MPI setting the handle to MPI_REQUEST_NULL: the caller copies
// out what it needs from their results and never touches the pointer again —
// the Engine reissues the object to a later Isend or Irecv.
type Endpoint interface {
	Rank() int
	Size() int
	Acct() *Acct
	Scheduler() *sim.Scheduler

	Isend(p *sim.Proc, dst, tag, ctx int, mode Mode, data []byte) (*Request, error)
	Irecv(p *sim.Proc, src, tag, ctx int, buf []byte) (*Request, error)
	Wait(p *sim.Proc, r *Request) (Status, error)
	Recv(p *sim.Proc, src, tag, ctx int, buf []byte) (Status, error) // Irecv then Wait
	// Sendrecv is Irecv, Isend, then a Wait on each (see Sendrecv).
	Sendrecv(p *sim.Proc, dst, sendTag int, data []byte, src, recvTag, ctx int, buf []byte) (Status, error)
	Test(p *sim.Proc, r *Request) (Status, bool, error)
	Probe(p *sim.Proc, src, tag, ctx int) (Status, error)
	Iprobe(p *sim.Proc, src, tag, ctx int) (Status, bool, error)
	Cancel(p *sim.Proc, r *Request) (bool, error)
	BufferAttach(n int)
	BufferDetach() int
	TraceLog() *trace.Log // the attached timeline log, nil when tracing is off

	// Finalize drives progress until no locally-initiated transfer still
	// needs this process (MPI_Finalize's completion guarantee: buffered
	// sends are delivered even if the application makes no further MPI
	// calls). It must not wait for unmatched receives. The rank is closed
	// once it returns (see Engine.Closed). A body that returns an error
	// never reaches Finalize (mpi.Launch), so it does not close.
	Finalize(p *sim.Proc)
}

var _ Endpoint = (*Engine)(nil)

// HWBcaster is implemented by endpoints whose platform has a hardware
// broadcast (the Meiko CS/2). All ranks of the context must call HWBcast
// collectively; buf is the payload at the root and the destination
// elsewhere.
type HWBcaster interface {
	HWBcast(p *sim.Proc, root, ctx int, buf []byte) error
}

// NewRequest builds a bare request for alternative Endpoint
// implementations (e.g. the tport-based MPICH baseline), which manage
// completion themselves via Complete.
func NewRequest(isRecv bool, env Envelope, buf []byte) *Request {
	return &Request{IsRecv: isRecv, Env: env, Buf: buf}
}

// Sendrecv is MPI_Sendrecv on ep: the receive is posted, the send started,
// and each waited for; pair, where not nil, waits for both before the
// send's Wait. A failed send takes the receive down with it: cancelled, or
// waited out where it has matched already, so no receive the call posted
// outlives it and takes a message meant for a later one.
func Sendrecv(ep Endpoint, p *sim.Proc, dst, sendTag int, data []byte, src, recvTag, ctx int, buf []byte, pair func(p *sim.Proc, s, r *Request)) (Status, error) {
	r, err := ep.Irecv(p, src, recvTag, ctx, buf)
	if err != nil {
		return Status{}, err
	}
	s, err := ep.Isend(p, dst, sendTag, ctx, ModeStandard, data)
	if err == nil {
		if pair != nil {
			pair(p, s, r)
		}
		_, err = ep.Wait(p, s)
	}
	if err == nil {
		return ep.Wait(p, r)
	}
	if ok, _ := ep.Cancel(p, r); !ok {
		ep.Wait(p, r)
	}
	return Status{}, err
}

// Complete finishes the request with the given status and error; exported
// for alternative Endpoint implementations.
func (r *Request) Complete(st Status, err error) { r.complete(st, err) }
