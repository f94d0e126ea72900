package core

import "repro/internal/sim"

// PacketKind enumerates the protocol messages exchanged by engines. The
// 1-byte "message type" of the paper's 25-byte cluster header carries
// exactly this discriminator.
type PacketKind uint8

const (
	// PktEager carries an envelope with the payload piggybacked; the
	// payload is deposited in receiver-side bounce space (the Meiko
	// per-sender slot, or the cluster's reserved credit memory).
	PktEager PacketKind = iota
	// PktRTS is a rendezvous envelope: payload stays at the sender until
	// the receiver matches and accepts.
	PktRTS
	// PktCTS flows back to the sender once an RTS matched; it names the
	// sender request that may now transmit its payload.
	PktCTS
	// PktData is a rendezvous payload arriving into the posted buffer.
	PktData
	// PktSyncAck acknowledges the match of a synchronous-mode eager send.
	PktSyncAck
	// PktCredit returns freed bounce space to a sender (cluster transport:
	// usually piggybacked, explicit when traffic is one-sided; Meiko: the
	// slot-free acknowledgement, consumed by the sender's Elan).
	PktCredit
	// PktRevoke is the reliable-broadcast notice that a communicator was
	// revoked (Env.Context carries the revoked p2p context id). Every engine
	// re-forwards it on first receipt, so it reaches all survivors even if
	// the revoker dies mid-broadcast.
	PktRevoke
)

func (k PacketKind) String() string {
	switch k {
	case PktEager:
		return "eager"
	case PktRTS:
		return "rts"
	case PktCTS:
		return "cts"
	case PktData:
		return "data"
	case PktSyncAck:
		return "syncack"
	case PktCredit:
		return "credit"
	case PktRevoke:
		return "revoke"
	default:
		return "unknown"
	}
}

// Packet is a protocol message surfaced to an engine by its transport.
type Packet struct {
	Kind    PacketKind
	Env     Envelope
	Data    []byte   // eager payload (bounce storage owned by transport until Release)
	ReqID   int64    // CTS/SyncAck: sender request; Data: receiver request
	Landing int64    // CTS: the receiver's name for where the payload lands, handed to SendPayload
	Pool    *BufPool // owner of Data; the engine recycles the bounce buffer after its copy-out
}

// Transport moves bytes and charges platform time on behalf of an Engine.
// The engine decides what to send and when — the eager/rendezvous branch,
// flow control, credit returns — and a transport only moves what it is
// handed: the paper's §5.1 list of an envelope, an envelope with
// piggybacked data, and DMA data. There is one implementation per distinct
// wire: the Meiko's Elan (transactions, DMA, per-sender envelope slots), the
// cluster's sockets (a TCP stream or RUDP/U-Net datagrams, byte credits),
// and the store-based MemFabric, which mem and cluster/shm both run on under
// different cost tables. A flow-controlled wire gives the engine its
// crossover and its SendQueue once, with Engine.SetFlow.
//
// All methods taking a *sim.Proc run in that proc's context, inside an MPI
// call, may charge it time and wait only in Engine.Park; PollStep takes
// none, for the engine spends its charges and waits out its blocks.
// Delivery upcalls into the Engine (SendDone, Land, Wake) may instead come
// from event context: the modelled hardware and kernel, all that acts
// outside MPI (see Progress).
type Transport interface {
	// Ship moves one packet to rank dst: an eager envelope with its payload
	// in Data (the caller's buffer, which the wire copies before Ship
	// returns), a rendezvous RTS, or a control packet (PktSyncAck, the
	// window and revoke notices, or a PktCredit returning Env.Count units
	// of bounce space). p is nil when a credit that landed in event context
	// released the send; the wire then charges no process time.
	Ship(p *sim.Proc, dst int, pkt Packet)

	// Accept informs the transport that the receiver matched RTS msg with
	// posted receive req: it issues the CTS and arranges for the payload to
	// land in req.Buf, then calls Engine.Land.
	Accept(p *sim.Proc, msg *InMsg, req *Request)

	// SendPayload handles a CTS that surfaced through PollStep (stream
	// transports, where the sending process itself must push the data):
	// transmit req's payload toward the receive named by pkt.Landing. The
	// engine completes the send when it returns.
	SendPayload(p *sim.Proc, req *Request, pkt *Packet)

	// PollStep is the wire's poll, in steps: the code up to its next
	// charge, which it reports (d > 0), called again at the charge's wake;
	// or where the poll blocks (a socket read that found nothing buffered
	// mid-frame) the Cond to wait on, reported again by a second call at
	// that instant, the step at its wake charging the wakeup; or, with
	// neither, the next packet, nil only when nothing is left to surface,
	// with no time charged since it looked. Between its steps it never
	// charges or blocks, so the engine runs them as the head of its receive
	// chain, in the rank's proc or at a parked rank's wake (DESIGN §4). The
	// packet is the transport's until the next PollStep. A credit the poll
	// parses goes to Engine.Credit, whose released sends the engine ships
	// before it polls again.
	PollStep() (c sim.Cat, d sim.Duration, pkt *Packet, wait *sim.Cond)

	// PeerDown tells the transport that rank was declared dead (the engine
	// already failed the doomed requests and dropped the sends queued
	// toward it), so per-peer wire state — rendezvous bookkeeping, owed
	// credits, reliability timers — is fenced off instead of retrying into
	// a black hole. May run in event context.
	PeerDown(rank int)
}
