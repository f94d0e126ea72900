package atm

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/sim"
)

// RUDP header: 1 flag byte, 4-byte sequence, 4-byte cumulative ack. Every
// data frame carries both bits: the sequence it introduces and the ack it
// piggybacks.
const rudpHeader = 9

const (
	rudpData = 1
	rudpAck  = 2
)

// Retransmission tuning. The estimator starts from the classic fixed RTO
// and converges onto Jacobson's srtt + 4*rttvar once samples arrive.
const (
	rudpInitialRTO   = 10 * time.Millisecond
	rudpMinRTO       = 1 * time.Millisecond
	rudpMaxRTO       = 640 * time.Millisecond
	rudpDupThreshold = 3 // duplicate cumulative acks before fast retransmit
)

// RUDP layers reliability over a UDP socket: per-peer sequence numbers,
// cumulative acknowledgements, timer-driven retransmission, duplicate
// suppression and in-order delivery — the paper's "additional measures
// taken to make the UDP communication reliable", whose cost is why its
// UDP MPI performed like the TCP one.
//
// Loss recovery is TCP-shaped: the RTO adapts to measured round trips
// (Jacobson's estimator, with Karn's rule excluding retransmitted frames
// from sampling), backs off exponentially across retries, and three
// duplicate cumulative acks trigger a fast retransmit of the oldest
// outstanding frame without waiting for the timer. A frame's timer is that
// RTO plus the time its own bytes, and those of every unacked frame ahead of
// it to the same peer, take to cross the path (budget): round trips are
// mostly sampled on small frames, and a 64 KiB datagram needs milliseconds
// of cells before its first copy can land. Acks piggyback on every
// outbound data frame, and every delivery is also acked at once through the
// full UDP send path (the paper's behaviour).
type RUDP struct {
	sock *UDP
	s    *sim.Scheduler

	Window     int // max unacked datagrams per peer
	MaxRetries int

	peers     map[int]*rudpPeer
	dead      map[int]bool // peers fenced by DropPeer: sends are swallowed
	stopped   bool         // Stop: every send is swallowed
	delivered sim.Queue[Datagram]
	chain     rudpDrain // drain's steps, for the reader that drains
	arrival   *sim.Cond
	watch     func(readable bool)       // see OnArrival
	pending   sim.FreeList[rudpPending] // retransmission records (see rudpPending)
	onResend  func()                    // see NewRUDP

	// Stats.
	Retransmits     int // frames re-sent (timer + fast retransmit)
	FastRetransmits int // re-sends triggered by duplicate acks
	Duplicates      int // already-delivered data frames received
	PureAcks        int // ack-only datagrams transmitted

	// Err is set if a peer exceeded MaxRetries (the link is declared dead).
	Err error
}

type rudpPeer struct {
	host     int
	nextSend uint32
	unacked  map[uint32]*rudpPending
	nextRecv uint32
	stash    map[uint32]Datagram
	inflight int // bytes of the frames in unacked

	// Jacobson/Karn RTT estimator state (zero until the first sample).
	srtt, rttvar, rto sim.Duration

	// Fast-retransmit state: the highest cumulative ack seen and how many
	// times it has repeated without progress.
	lastAck uint32
	dupAcks int
}

// rudpPending is one unacknowledged data frame. Its retransmission timer
// is expire, bound to the record once, so a send arms it without
// allocating. Records are pooled per RUDP, and only the timer recycles one:
// acknowledgement (applyAck, DropPeer) releases the frame and drops the
// record from unacked, which leaves the armed timer its last holder. After
// Err the records, and the frames they still hold, are left to the garbage
// collector.
type rudpPending struct {
	r      *RUDP
	pr     *rudpPeer
	frame  *Frame
	seq    uint32
	tries  int
	acked  bool
	sentAt sim.Time     // first transmission time, for RTT sampling
	rto    sim.Duration // current (backed-off) timeout for this frame
	budget sim.Duration // byte time added to rto on every arming (see budget)
	expire func()       // pend.timeout, bound once
}

// NewRUDP wraps sock with reliability. onResend, unless nil, runs on every
// retransmission, in event context on sock's lane, so a platform can count
// them in the rank's books.
func NewRUDP(sock *UDP, onResend func()) *RUDP {
	hs := sock.cl.SchedOf(sock.host)
	r := &RUDP{
		sock:       sock,
		s:          hs,
		Window:     32,
		MaxRetries: 25,
		peers:      make(map[int]*rudpPeer),
		arrival:    sim.NewCond(hs),
		onResend:   onResend,
	}
	r.chain.r = r
	// Pure acknowledgements are consumed at interrupt level, like the
	// kernel timers that drive retransmission: the sender's window opens
	// and its timers settle even when the application is off computing.
	sock.OnReadable(func() {
		r.consumeAcks()
		r.arrival.Broadcast()
		r.notify(r.sock.dq.Len() != 0)
	})
	return r
}

// consumeAcks removes and processes ack-only datagrams from the raw socket
// queue. Runs in event context, so it charges no process time.
func (r *RUDP) consumeAcks() {
	r.sock.dq.Filter(func(d Datagram) bool {
		if len(d.Data) == rudpHeader && d.Data[0]&rudpData == 0 && d.Data[0]&rudpAck != 0 {
			r.applyAck(r.peer(d.Src), binary.BigEndian.Uint32(d.Data[5:9]))
			r.Release(d)
			return false
		}
		return true
	})
}

// applyAck is the one ack-processing path, shared by the interrupt-level
// consumer, the syscall-level drain, and piggybacked acks on data frames:
// clear acknowledged frames below the cumulative ack, sample the RTT, and
// count duplicate acks toward fast retransmit.
func (r *RUDP) applyAck(pr *rudpPeer, ack uint32) {
	progress := false
	for s, pend := range pr.unacked {
		if s < ack {
			r.settle(pend)
			delete(pr.unacked, s)
			progress = true
			// Karn's rule: sample only never-retransmitted frames, and only
			// the one this ack directly covers (at most one per ack, so the
			// estimator's input order is deterministic).
			if pend.tries == 0 && pend.seq+1 == ack {
				r.sampleRTT(pr, sim.Duration(r.s.Now()-pend.sentAt))
			}
		}
	}
	if ack > pr.lastAck {
		pr.lastAck = ack
		pr.dupAcks = 0
	} else if ack == pr.lastAck && !progress && len(pr.unacked) > 0 {
		// The peer is repeating itself: frames beyond a hole are landing.
		pr.dupAcks++
		if pr.dupAcks == rudpDupThreshold {
			r.fastRetransmit(pr)
		}
	}
	if progress {
		r.arrival.Broadcast()
	}
}

// settle marks pend acknowledged and releases its frame; the record itself
// waits for its timer.
func (r *RUDP) settle(pend *rudpPending) {
	pend.acked = true
	pend.pr.inflight -= len(pend.frame.B)
	r.sock.release(pend.frame)
	pend.frame = nil
}

// sampleRTT folds one round-trip measurement into the peer's estimator
// (RFC 6298 / Jacobson '88 coefficients) and refreshes its timeout.
func (r *RUDP) sampleRTT(pr *rudpPeer, sample sim.Duration) {
	if pr.srtt == 0 {
		pr.srtt = sample
		pr.rttvar = sample / 2
	} else {
		dev := sample - pr.srtt
		if dev < 0 {
			dev = -dev
		}
		pr.rttvar += (dev - pr.rttvar) / 4
		pr.srtt += (sample - pr.srtt) / 8
	}
	pr.rto = clampRTO(pr.srtt + 4*pr.rttvar)
}

func clampRTO(d sim.Duration) sim.Duration {
	return min(max(d, rudpMinRTO), rudpMaxRTO)
}

// rtoFor reports the timeout for a fresh transmission to pr.
func rtoFor(pr *rudpPeer) sim.Duration {
	if pr.rto == 0 {
		return rudpInitialRTO
	}
	return pr.rto
}

// budget is the time n bytes take from this host to a peer's reader: the
// wire (an ATM cell carries 48 payload bytes in 53) plus the receiver's copy
// and checksum. It is added to a frame's RTO, never folded into it, so
// back-off and the estimator see round trips only.
func (r *RUDP) budget(n int) sim.Duration {
	k, b := r.sock.cl.Costs, sim.Duration(n)
	wire := b * k.EthPerByte
	if r.sock.med.Kind() == OverATM {
		wire = b * k.ATMPerByte * CellBytes / AAL5CellPayload
	}
	return wire + b*(k.CopyPerByte+k.ChecksumPerByte)
}

// fastRetransmit re-sends the oldest outstanding frame after three
// duplicate cumulative acks: the hole they point at is almost certainly
// lost, and waiting out the timer would idle the window. Runs in whichever
// context observed the duplicate ack (no process time charged).
func (r *RUDP) fastRetransmit(pr *rudpPeer) {
	var oldest *rudpPending
	for _, pend := range pr.unacked {
		if oldest == nil || pend.seq < oldest.seq {
			oldest = pend
		}
	}
	if oldest == nil {
		return
	}
	oldest.tries++ // a retransmission: Karn excludes it from sampling
	r.FastRetransmits++
	r.resend(pr, oldest)
	pr.dupAcks = 0
}

// resend puts pend's frame on the wire again: wire costs only, no user
// syscall, in whichever context the timer or the duplicate ack ran.
func (r *RUDP) resend(pr *rudpPeer, pend *rudpPending) {
	r.Retransmits++
	if r.onResend != nil {
		r.onResend()
	}
	r.restampAck(pr, pend)
	r.sock.transmit(pr.host, pend.frame)
}

// restampAck refreshes the piggybacked cumulative ack on a frame about to
// be retransmitted. A changed ack goes on a clone: the earlier transmission
// may still be in flight, queued at the peer or about to be duplicated by
// the fault layer, and must keep the ack it was sent with; the clone takes
// over the endpoint's hold. An unchanged one (the usual case when the timer
// merely outran a slow reader) costs nothing.
func (r *RUDP) restampAck(pr *rudpPeer, pend *rudpPending) {
	old := pend.frame
	if binary.BigEndian.Uint32(old.B[5:9]) == pr.nextRecv {
		return
	}
	pend.frame = r.sock.frame(len(old.B))
	copy(pend.frame.B, old.B)
	binary.BigEndian.PutUint32(pend.frame.B[5:9], pr.nextRecv)
	r.sock.release(old)
}

func (r *RUDP) peer(h int) *rudpPeer {
	p, ok := r.peers[h]
	if !ok {
		p = &rudpPeer{host: h, unacked: make(map[uint32]*rudpPending), stash: make(map[uint32]Datagram)}
		r.peers[h] = p
	}
	return p
}

// DropPeer fences a dead peer: outstanding frames toward it are abandoned
// (their retransmission timers observe them acked and die) and every
// future send to it is swallowed. Without the fence, a single process
// failure would escalate into MaxRetries link death for the survivor —
// the corpse can never acknowledge anything.
func (r *RUDP) DropPeer(host int) {
	if r.dead == nil {
		r.dead = make(map[int]bool)
	}
	r.dead[host] = true
	pr, ok := r.peers[host]
	if !ok {
		return
	}
	r.abandon(pr)
	pr.dupAcks = 0
	r.arrival.Broadcast()
}

// abandon settles every frame outstanding to pr unacknowledged: their
// retransmission timers observe them acked and die.
func (r *RUDP) abandon(pr *rudpPeer) {
	for s, pend := range pr.unacked {
		r.settle(pend)
		delete(pr.unacked, s)
	}
}

// Stop is the sending side of a process death: every outstanding frame is
// abandoned, as DropPeer abandons one peer's, and every later send is
// swallowed. Unlike DropPeer it fences no peer, so Discard still acks what
// reaches the dead process and no survivor retransmits toward it.
func (r *RUDP) Stop() {
	r.stopped = true
	for _, pr := range r.peers {
		r.abandon(pr)
	}
	r.arrival.Broadcast()
}

// Headroom is the header space SendFrame's caller leaves before its payload.
func (r *RUDP) Headroom() int { return rudpHeader }

// Frame draws an n-byte frame for SendFrame from the socket's lists. Its
// bytes are not zeroed.
func (r *RUDP) Frame(n int) *Frame { return r.sock.frame(n) }

// Release gives back the hold a datagram from TryRecv carries, once its
// reader is done with d.Data.
func (r *RUDP) Release(d Datagram) { r.sock.release(d.Frame) }

// SendFrame is Send for a frame from Frame whose hold the caller gives up:
// Headroom bytes, then the payload. It is the one buffer the datagram ever
// occupies — held here until acked, in flight, queued at the peer and
// viewed by its reader.
func (r *RUDP) SendFrame(p *sim.Proc, dst int, f *Frame) error {
	pr := r.peer(dst)
	for !r.dead[dst] && !r.stopped && len(pr.unacked) >= r.Window {
		r.drain(p)
		if r.Err != nil {
			break
		}
		if len(pr.unacked) >= r.Window {
			r.arrival.Wait(p)
		}
	}
	if r.dead[dst] || r.stopped {
		r.sock.release(f)
		return nil // fenced by DropPeer or Stop, before or during the wait: swallowed
	}
	if r.Err != nil {
		r.sock.release(f)
		return r.Err
	}
	seq := pr.nextSend
	pr.nextSend++
	frame := f.B
	frame[0] = rudpData | rudpAck
	binary.BigEndian.PutUint32(frame[1:5], seq)
	binary.BigEndian.PutUint32(frame[5:9], pr.nextRecv)
	pend := r.pending.Get()
	if pend == nil {
		pend = &rudpPending{r: r}
		pend.expire = pend.timeout
	}
	pend.pr, pend.frame, pend.seq = pr, f, seq
	pr.unacked[seq] = pend
	pr.inflight += len(f.B)
	pend.budget = r.budget(pr.inflight)
	r.sock.send(p, dst, f)
	pend.sentAt = r.s.Now()
	pend.rto = rtoFor(pr)
	r.s.After(pend.rto+pend.budget, pend.expire)
	return r.Err
}

// timeout is the loss-recovery timer: it recycles an acknowledged record,
// and otherwise retransmits and re-arms itself, backing off exponentially
// on every expiry until MaxRetries declares the link dead.
func (pend *rudpPending) timeout() {
	r, pr := pend.r, pend.pr
	if r.Err != nil {
		return
	}
	if pend.acked {
		*pend = rudpPending{r: r, expire: pend.expire}
		r.pending.Put(pend)
		return
	}
	pend.tries++
	if pend.tries > r.MaxRetries {
		r.Err = fmt.Errorf("rudp: peer %d unreachable after %d retransmissions of seq %d", pr.host, pend.tries-1, pend.seq)
		r.arrival.Broadcast()
		r.notify(true)
		return
	}
	pend.rto = clampRTO(pend.rto * 2)
	// The connection backs off with its oldest frame, so frames queued
	// behind an outage do not add their own retransmission storm.
	if pend.rto > pr.rto {
		pr.rto = pend.rto
	}
	r.resend(pr, pend)
	r.s.After(pend.rto+pend.budget, pend.expire)
}

// TryRecv returns one in-order datagram the drain delivered: a read-only
// view of the sender's frame, valid until the caller passes d to Release
// (kept for good if it never does). Delivered data precedes a dead link's
// error.
func (r *RUDP) TryRecv() (d Datagram, ok bool, err error) {
	if r.delivered.Len() > 0 {
		return r.delivered.Pop(), true, nil
	}
	return Datagram{}, false, r.Err
}

// RecvStep is the next step of a drain its reader drives (rudpDrain).
func (r *RUDP) RecvStep() (sim.Cat, sim.Duration, *sim.Cond) { return r.chain.Step() }

// MaxDatagram reports the largest payload Send accepts.
func (r *RUDP) MaxDatagram() int { return r.sock.MaxDatagram() - rudpHeader }

// OnArrival sets fn to run when raw datagrams arrive or the link dies
// (event context) — death must wake pollers just like an arrival, or a
// blocked Wait would never observe the error. readable is false when the
// arrivals were pure acks, all consumed, leaving nothing to read.
func (r *RUDP) OnArrival(fn func(readable bool)) { r.watch = fn }

// notify runs the arrival watcher (event context).
func (r *RUDP) notify(readable bool) {
	if r.watch != nil {
		r.watch(readable)
	}
}

// Readable reports whether an in-order datagram is deliverable (after a
// drain by the owning proc).
func (r *RUDP) Readable() bool { return r.delivered.Len() > 0 || r.sock.Readable() }

// drain processes every queued raw datagram: piggybacked and pure acks go
// through applyAck; data is ordered, deduplicated and acked. Frames are
// parsed where they lie — delivered and stash hold views past the header,
// each with the hold its raw datagram carried; the rest are released here.
// With p nil (Discard) it runs in event context: no read is charged, and
// acks go out on the wire alone. With p it is drain's steps (rudpDrain),
// which the kernel runs in p's place at each charge's wake.
func (r *RUDP) drain(p *sim.Proc) {
	if p == nil {
		for r.sock.Readable() {
			if src, ok := r.accept(r.sock.dq.Pop()); ok {
				f := r.ackFrame(src)
				r.sock.transmit(src, f)
				r.sock.release(f)
			}
		}
		return
	}
	sim.RunSteps(p, &r.chain)
}

// rudpDrain is drain's loop for a reader, as steps (a sim.Stepper): a
// datagram's read (SockRead's steps); at its copy's wake, the datagram's
// processing and its ack's write; at the write's wake, the ack's
// transmission; then, while a datagram is queued, the next read.
type rudpDrain struct {
	r     *RUDP
	stage uint8
	rd    *SockRead // the datagram's read
	ack   *Frame    // written, transmitted at the write's wake
	dst   int
}

// Where the drain stands.
const (
	drainIdle  = iota // between datagrams
	drainRead         // a read is under way
	drainWrite        // at the ack write's wake: transmit the ack
)

func (c *rudpDrain) Relay() (sim.Cat, sim.Duration, sim.Step) { return sim.StepRelay(c.Step()) }

func (c *rudpDrain) Step() (sim.Cat, sim.Duration, *sim.Cond) {
	r, u := c.r, c.r.sock
	for {
		switch c.stage {
		case drainRead:
			if cat, d, w := c.rd.Step(); d > 0 || w != nil {
				return cat, d, w
			}
			src, ok := r.accept(c.rd.d)
			c.rd.Done()
			c.rd, c.stage = nil, drainIdle
			if ok {
				c.ack, c.dst, c.stage = r.ackFrame(src), src, drainWrite
				if d := u.sendCharge(len(c.ack.B)); d > 0 {
					return sim.Syscall, d, nil
				}
			}
		case drainWrite:
			u.transmit(c.dst, c.ack)
			u.release(c.ack)
			c.ack, c.stage = nil, drainIdle
		default:
			if !u.Readable() {
				return 0, 0, nil
			}
			c.rd, c.stage = u.readStep(u.MaxDatagram()), drainRead
		}
	}
}

// accept processes one raw datagram and reports whether to ack it, and to
// whom.
func (r *RUDP) accept(d Datagram) (int, bool) {
	buf, src := d.Data, d.Src
	if len(buf) < rudpHeader {
		r.Release(d)
		return 0, false
	}
	flags := buf[0]
	seq := binary.BigEndian.Uint32(buf[1:5])
	ack := binary.BigEndian.Uint32(buf[5:9])
	pr := r.peer(src)
	if flags&rudpAck != 0 {
		r.applyAck(pr, ack)
	}
	if flags&rudpData == 0 {
		r.Release(d)
		return 0, false // pure ack
	}
	d.Data = buf[rudpHeader:]
	switch _, stashed := pr.stash[seq]; {
	case seq == pr.nextRecv:
		pr.nextRecv++
		r.delivered.Push(d)
		for {
			next, ok := pr.stash[pr.nextRecv]
			if !ok {
				break
			}
			delete(pr.stash, pr.nextRecv)
			r.delivered.Push(next)
			pr.nextRecv++
		}
	case seq < pr.nextRecv:
		r.Duplicates++ // retransmission of delivered data: just re-ack
		r.Release(d)
	case stashed:
		r.Release(d) // the same bytes are already waiting
	default:
		pr.stash[seq] = d
	}
	return src, !r.dead[src] // no point acknowledging toward a fenced corpse
}

// Discard is drain for a reader that has left for good: in event context,
// like the pure-ack consumer, it acks what is queued and drops the data, so
// no sender retransmits toward a reader that will never drain.
func (r *RUDP) Discard() {
	r.drain(nil)
	for r.delivered.Len() > 0 {
		r.Release(r.delivered.Pop())
	}
}

// ackFrame builds the cumulative ack for src, which goes through the full
// UDP path: the syscall and protocol costs of acking are exactly the
// overhead that made the paper's reliable-UDP MPI no faster than TCP (from
// Discard, the wire alone). The caller transmits and releases it.
func (r *RUDP) ackFrame(src int) *Frame {
	r.PureAcks++
	f := r.sock.frame(rudpHeader)
	f.B[0] = rudpAck
	binary.BigEndian.PutUint32(f.B[1:5], 0) // a pooled frame is not zeroed
	binary.BigEndian.PutUint32(f.B[5:9], r.peer(src).nextRecv)
	return f
}
