package atm

import (
	"bytes"

	"repro/internal/sim"
)

// The blocking forms of the receives, the copying sends and an accessor that
// only this package's tests call: the MPI transport drives the stepped
// receives (RecvStep, TryRecv) and sends frames it gives up.

// Policy reports the installed policy (nil when passthrough).
func (in *Injector) Policy() *Faults { return in.policy }

// Send reliably transmits data to host dst, blocking on the send window.
// The caller keeps data: Send copies it behind a fresh header.
func (r *RUDP) Send(p *sim.Proc, dst int, data []byte) error {
	f := r.Frame(rudpHeader + len(data))
	copy(f.B[rudpHeader:], data)
	return r.SendFrame(p, dst, f)
}

// SendTo is Send for a buffer the caller keeps: the endpoint sends a
// snapshot.
func (u *UNet) SendTo(p *sim.Proc, dst int, data []byte) {
	u.Send(p, dst, bytes.Clone(data))
}

// Recv blocks for the next in-order datagram from any peer and copies it
// into buf.
func (r *RUDP) Recv(p *sim.Proc, buf []byte) (int, int, error) {
	for {
		r.drain(p)
		d, ok, err := r.TryRecv()
		if ok {
			n := copy(buf, d.Data)
			r.Release(d)
			return n, d.Src, nil
		}
		if err != nil {
			return 0, 0, err
		}
		r.arrival.Wait(p)
	}
}

// RecvFrom blocks polling the receive queue for the next message and
// copies it into buf, truncating silently.
func (u *UNet) RecvFrom(p *sim.Proc, buf []byte) (int, int) {
	d := u.Recv(p, len(buf))
	return copy(buf, d.Data), d.Src
}

// Recv is RecvFrom without the host copy: same charges as a receive into a
// max-byte buffer, returning a read-only view of the first max bytes.
func (u *UNet) Recv(p *sim.Proc, max int) Datagram {
	return u.readStep(max).read(p).d
}
