package mpi

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// Request is an in-flight nonblocking operation bound to its communicator.
// The first Wait, successful Test or successful Cancel consumes the
// endpoint's request (it may be reissued at once): the outcome is copied
// here and req dropped, so a consumed Request behaves like MPI_REQUEST_NULL
// with its last status attached.
type Request struct {
	c         *Comm
	req       *core.Request // nil once consumed
	st        Status
	err       error
	cancelled bool
}

// finish records the outcome of the consumed endpoint request.
func (r *Request) finish(st Status, err error) {
	r.req, r.st, r.err = nil, r.c.fixStatus(st), err
}

// Wait blocks until the request completes.
func (r *Request) Wait() (Status, error) {
	if r.req != nil {
		r.finish(r.c.ep.Wait(r.c.p, r.req))
	}
	return r.st, r.err
}

// Test reports whether the request has completed, making progress.
func (r *Request) Test() (Status, bool, error) {
	if r.req != nil {
		st, ok, err := r.c.ep.Test(r.c.p, r.req)
		if !ok {
			return st, false, err
		}
		r.finish(st, err)
	}
	return r.st, true, r.err
}

// Cancel cancels an unmatched posted receive.
func (r *Request) Cancel() error {
	if r.req == nil {
		return nil
	}
	ok, err := r.c.ep.Cancel(r.c.p, r.req)
	if ok {
		r.req, r.cancelled = nil, true
	}
	return err
}

// Cancelled reports whether the request was cancelled.
func (r *Request) Cancelled() bool { return r.cancelled }

// Done reports completion without making progress.
func (r *Request) Done() bool { return r.req == nil || r.req.Done() }

// ---------------------------------------------------------------- sends --

// startSend starts a send on the engine. The blocking calls wait on the
// engine request directly; only the nonblocking ones wrap it in a Request.
func (c *Comm) startSend(dst, tag int, mode core.Mode, data []byte) (*core.Request, error) {
	wr, err := c.peer(dst, tag, false)
	if err != nil {
		return nil, err
	}
	return c.ep.Isend(c.p, wr, tag, c.ctx, mode, data)
}

func (c *Comm) isend(dst, tag int, mode core.Mode, data []byte) (*Request, error) {
	req, err := c.startSend(dst, tag, mode, data)
	if err != nil {
		return nil, err
	}
	return &Request{c: c, req: req}, nil
}

func (c *Comm) send(dst, tag int, mode core.Mode, data []byte) error {
	req, err := c.startSend(dst, tag, mode, data)
	if err != nil {
		return err
	}
	_, err = c.ep.Wait(c.p, req)
	return err
}

// Send is the blocking standard-mode send (MPI_Send).
func (c *Comm) Send(dst, tag int, data []byte) error {
	return c.send(dst, tag, core.ModeStandard, data)
}

// Ssend is the blocking synchronous-mode send: it completes only once the
// matching receive is posted (MPI_Ssend).
func (c *Comm) Ssend(dst, tag int, data []byte) error {
	return c.send(dst, tag, core.ModeSync, data)
}

// Rsend is the blocking ready-mode send: the program asserts the matching
// receive is already posted (MPI_Rsend).
func (c *Comm) Rsend(dst, tag int, data []byte) error {
	return c.send(dst, tag, core.ModeReady, data)
}

// Bsend is the blocking buffered-mode send, drawing on the buffer provided
// with BufferAttach (MPI_Bsend).
func (c *Comm) Bsend(dst, tag int, data []byte) error {
	return c.send(dst, tag, core.ModeBuffered, data)
}

// Isend starts a nonblocking standard-mode send.
func (c *Comm) Isend(dst, tag int, data []byte) (*Request, error) {
	return c.isend(dst, tag, core.ModeStandard, data)
}

// -------------------------------------------------------------- receives --

// startRecv posts a receive on the engine (see startSend).
func (c *Comm) startRecv(src, tag int, buf []byte) (*core.Request, error) {
	wr, err := c.peer(src, tag, true)
	if err != nil {
		return nil, err
	}
	return c.ep.Irecv(c.p, wr, tag, c.ctx, buf)
}

// Irecv posts a nonblocking receive (MPI_Irecv). src may be AnySource and
// tag may be AnyTag.
func (c *Comm) Irecv(src, tag int, buf []byte) (*Request, error) {
	req, err := c.startRecv(src, tag, buf)
	if err != nil {
		return nil, err
	}
	return &Request{c: c, req: req}, nil
}

// Recv is the blocking receive (MPI_Recv).
func (c *Comm) Recv(src, tag int, buf []byte) (Status, error) {
	wr, err := c.peer(src, tag, true)
	if err != nil {
		return Status{}, err
	}
	st, err := c.ep.Recv(c.p, wr, tag, c.ctx, buf)
	return c.fixStatus(st), err
}

// Probe blocks until a matching message is available and reports its
// status without receiving it (MPI_Probe).
func (c *Comm) Probe(src, tag int) (Status, error) {
	wr, err := c.peer(src, tag, true)
	if err != nil {
		return Status{}, err
	}
	st, err := c.ep.Probe(c.p, wr, tag, c.ctx)
	return c.fixStatus(st), err
}

// Iprobe reports whether a matching message is available (MPI_Iprobe).
func (c *Comm) Iprobe(src, tag int) (Status, bool, error) {
	wr, err := c.peer(src, tag, true)
	if err != nil {
		return Status{}, false, err
	}
	st, ok, err := c.ep.Iprobe(c.p, wr, tag, c.ctx)
	return c.fixStatus(st), ok, err
}

// Sendrecv concurrently sends to dst and receives from src, avoiding the
// cyclic-blocking pitfall (MPI_Sendrecv). Both peers and tags are checked
// before anything is posted.
func (c *Comm) Sendrecv(dst, sendTag int, sendData []byte, src, recvTag int, recvBuf []byte) (Status, error) {
	ws, err := c.peer(src, recvTag, true)
	if err != nil {
		return Status{}, err
	}
	wd, err := c.peer(dst, sendTag, false)
	if err != nil {
		return Status{}, err
	}
	st, err := c.ep.Sendrecv(c.p, wd, sendTag, sendData, ws, recvTag, c.ctx, recvBuf)
	return c.fixStatus(st), err
}

// --------------------------------------------------- multiple completion --

// WaitAll completes every request (MPI_Waitall).
func WaitAll(reqs ...*Request) ([]Status, error) {
	sts := make([]Status, len(reqs))
	var firstErr error
	for i, r := range reqs {
		if r == nil {
			continue
		}
		st, err := r.Wait()
		sts[i] = st
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return sts, firstErr
}

// WaitAny blocks until some request completes and returns its index
// (MPI_Waitany). Nil and consumed entries are MPI_REQUEST_NULL: skipped.
func WaitAny(reqs ...*Request) (int, Status, error) {
	for {
		var live *Request
		for i, r := range reqs {
			if r == nil || r.req == nil {
				continue
			}
			if st, ok, err := r.Test(); ok {
				return i, st, err
			}
			if live == nil {
				live = r
			}
		}
		if live == nil {
			return -1, Status{}, core.Errorf(core.ErrInternal, "WaitAny: no active request")
		}
		// Nothing ready: yield virtual time on the first live request's
		// process; arrival wakeups happen inside Test's Progress.
		live.c.p.Spend(sim.Parked, 1000) // 1us poll interval, booked as waiting
	}
}

// TestAll reports whether every request has completed (MPI_Testall).
func TestAll(reqs ...*Request) (bool, error) {
	all := true
	var firstErr error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		_, ok, err := r.Test()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if !ok {
			all = false
		}
	}
	return all, firstErr
}

// WaitSome blocks until at least one request completes, returning the
// indices completed (MPI_Waitsome).
func WaitSome(reqs ...*Request) ([]int, error) {
	idx, _, err := WaitAny(reqs...)
	if err != nil {
		return nil, err
	}
	done := []int{idx}
	for i, r := range reqs {
		if i != idx && r != nil && r.req != nil && r.req.Done() {
			done = append(done, i)
		}
	}
	return done, nil
}

// ------------------------------------------------------------- persistent --

// Persistent is a persistent communication request (MPI_Send_init /
// MPI_Recv_init): Start launches one instance of the operation.
type Persistent struct {
	c      *Comm
	isRecv bool
	peer   int
	tag    int
	buf    []byte
}

// SendInit creates a persistent standard-mode send.
func (c *Comm) SendInit(dst, tag int, buf []byte) *Persistent {
	return &Persistent{c: c, peer: dst, tag: tag, buf: buf}
}

// RecvInit creates a persistent receive.
func (c *Comm) RecvInit(src, tag int, buf []byte) *Persistent {
	return &Persistent{c: c, isRecv: true, peer: src, tag: tag, buf: buf}
}

// Start launches one instance of the persistent operation.
func (pr *Persistent) Start() (*Request, error) {
	if pr.isRecv {
		return pr.c.Irecv(pr.peer, pr.tag, pr.buf)
	}
	return pr.c.isend(pr.peer, pr.tag, core.ModeStandard, pr.buf)
}
