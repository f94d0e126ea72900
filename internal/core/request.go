package core

// Request is the state of an in-flight nonblocking operation. Requests are
// created by the engine and completed either in the receiving/sending proc's
// context (poll model) or from a device event (DMA completion).
// An engine's requests are recycled once consumed (see Endpoint and
// reqtable.go).
type Request struct {
	// ID is the request's wire name, (slot, generation) packed into 32 bits;
	// zero on a bare NewRequest and on a request the engine has released.
	ID     int64
	IsRecv bool
	Env    Envelope // for sends: the outgoing envelope; for recvs: the match pattern in Source/Tag/Context
	Buf    []byte   // send payload or receive buffer

	// seq orders an engine's requests by creation, for the fault sweeps.
	seq uint64

	// Send-side protocol state.
	sent      bool // transport finished moving the data (or accepted it for background delivery)
	acked     bool // match acknowledged (sync mode) or rendezvous completed
	ackWanted bool
	buffered  bool // Bsend: attached-buffer space is freed on SendDone

	// Recv-side state.
	matched    bool
	matchedSrc int // the source rank this receive matched (valid once matched)

	done   bool
	status Status
	err    error

	// consumed by Wait, Test or Cancel: the caller holds it no longer.
	consumed bool
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done }

// Status reports the completion status; valid only once Done.
func (r *Request) Status() Status { return r.status }

// Err reports the terminal error, if any.
func (r *Request) Err() error { return r.err }

// complete marks the request done with the given status. Completion is
// first-wins: a request failed by peer death or a revoke must not be
// overwritten by a late transport event (e.g. a rendezvous payload already
// in flight when the peer died lands after the receive was failed).
func (r *Request) complete(st Status, err error) {
	if r.done {
		return
	}
	r.done = true
	r.status = st
	r.err = err
}

// sendMaybeComplete completes a send request once the transport has moved
// the data and any required acknowledgement has arrived.
func (r *Request) sendMaybeComplete() {
	if r.done || !r.sent {
		return
	}
	if r.ackWanted && !r.acked {
		return
	}
	r.complete(Status{Source: r.Env.Dest, Tag: r.Env.Tag, Count: r.Env.Count}, r.err)
}
