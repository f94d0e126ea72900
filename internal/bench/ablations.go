package bench

import (
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

// Ablations beyond the paper's figures, covering the design choices
// DESIGN.md calls out: the crossover threshold, the broadcast algorithm,
// and the cost of reliability under datagram loss.

// AblationsReport is the record the ablations suite writes as
// BENCH_ablations.json: every ablation figure, in the order ablationDefs
// lists them. All of it is simulated time, so the record is
// byte-reproducible.
type AblationsReport struct {
	Figures []Figure `json:"figures"`
}

func (r AblationsReport) figures() []Figure { return r.Figures }

// ablationsSweep is the ablations suite's record.
func ablationsSweep(o Opts) sweep[AblationsReport] {
	s := figuresSweep("ablations", ablationDefs(o))
	return sweep[AblationsReport]{
		skeleton: func() AblationsReport { return AblationsReport{s.skeleton()} },
		points:   func(r *AblationsReport) []point { return s.points(&r.Figures) },
	}
}

// ablationDefs are the ablation figures, in the record's order.
func ablationDefs(o Opts) []figureDef {
	o = o.Norm()
	meiko, udp := registry.Spec{Platform: "meiko", Ranks: 2}, registry.Spec{Platform: "cluster", Transport: "udp", Ranks: 2}
	bcast := func(alg string, n, iters int) curve {
		return curve{alg, func(x *runner, p int) (float64, error) {
			us, err := x.elapsedUS(registry.Spec{Platform: "meiko", Ranks: p, Coll: "bcast=" + alg}, func(c *mpi.Comm) error {
				return collBody(c, "bcast", n, iters)
			})
			return us / float64(iters), err
		}}
	}
	transports := []string{"unet", "udp", "tcp"}
	return []figureDef{
		// The 256-byte round trip across thresholds: why the measured 180-byte
		// crossover is the right setting (256 B should use rendezvous;
		// thresholds above it force buffering).
		{fig: fig("Ablation A", "Eager/rendezvous threshold sweep (Meiko, 256-byte messages)", "threshold", "us",
			"messages above the 180-byte crossover should rendezvous; forcing eager pays the bounce copy"),
			xs: []int{1, 64, 128, 180, 256, 512, 1024},
			curves: []curve{{"256B RTT", func(x *runner, th int) (float64, error) {
				return x.rtt(meikoPair("lowlatency", th), 256, o.Iters)
			}}}},
		// The hardware broadcast against linear and binomial point-to-point
		// trees.
		{fig: fig("Ablation B", "Broadcast algorithm (Meiko, 1 KB payload, per-bcast time)", "# processes", "us"),
			xs:     []int{2, 4, 8, 16},
			curves: []curve{bcast("hardware", 1024, o.Iters), bcast("binomial", 1024, o.Iters), bcast("linear", 1024, o.Iters)}},
		// Bulk payloads, where the pipelined chain overlaps stages that a
		// binomial tree serializes.
		{fig: fig("Ablation B2", "Large-payload broadcast (Meiko, 128 KB, per-bcast time)", "# processes", "us",
			"pipelined rendezvous lands in user buffers; the hardware broadcast pays a slot-to-user copy at bulk sizes"),
			xs:     []int{4, 8, 16},
			curves: []curve{bcast("hardware", 128<<10, 3), bcast("binomial", 128<<10, 3), bcast("pipelined", 128<<10, 3)}},
		// The retransmission cost the paper's reliability layer hides at zero
		// loss.
		{fig: fig("Ablation C", "Reliable-UDP MPI under datagram loss (ATM)", "loss %", "us",
			"retransmission timeouts dominate once loss is non-negligible"),
			xs: []int{0, 5, 10, 20},
			curves: []curve{{"256B RTT", func(x *runner, pct int) (float64, error) {
				spec := udp
				spec.LossRate = float64(pct) / 100
				return x.rtt(spec, 256, o.Iters*4)
			}}}},
		// What the era's implementors learned the hard way: Nagle + delayed
		// acks stall one-way small-message streams on the ack timer, while
		// TCP_NODELAY (the library default, as the paper's latencies
		// presuppose) flows at wire speed.
		{fig: fig("Ablation F", "TCP_NODELAY vs Nagle+delayed-ack (one-way 100B eager stream)", "variant (0=nodelay, 1=nagle)", "us per message",
			"single-write framing keeps ping-pong safe; one-way streams still hit the ack timer"),
			xs: []int{0, 1},
			curves: []curve{oneWayStream("per-message latency", 20, 100, func(nagle int) registry.Spec {
				return registry.Spec{Platform: "cluster", Ranks: 2, TCPNagle: nagle == 1}
			})}},
		// The paper's future-work pointer (U-Net, Thekkath et al.):
		// user-level networking on the same ATM hardware.
		{fig: fig("Ablation G", "User-level networking (0=unet, 1=udp, 2=tcp; MPI over ATM)", "transport", "us RTT",
			"kernel bypass removes the syscall/protocol/driver costs Table 1 charges"),
			xs: []int{0, 1, 2},
			curves: []curve{{"1B MPI RTT", func(x *runner, i int) (float64, error) {
				return x.rtt(clusterPair(transports[i], "atm"), 1, o.Iters)
			}}}},
		// The paper allocates one envelope slot per pair, which serializes
		// back-to-back eager streams on the slot-free round trip; extra slots
		// pipeline them.
		{fig: fig("Ablation H", "Envelope slots per pair (Meiko, one-way eager stream)", "slots", "us per message",
			"negative result: receiver-side processing dominates the slot-free round trip,",
			"so one slot per pair (the paper's choice) costs streams nothing"),
			xs: []int{1, 2, 4, 8},
			curves: []curve{oneWayStream("100B one-way stream", 20, 100, func(slots int) registry.Spec {
				spec := meiko
				spec.EnvelopeSlots = slots
				return spec
			})}},
		// Small per-pair reservations stall optimistic senders on credit round
		// trips.
		{fig: fig("Ablation I", "Per-pair credit reservation (cluster, one-way eager stream)", "KB reserved", "us per message",
			"the paper's receiver-reserved memory: big enough and senders never stall"),
			xs: []int{2, 4, 16, 64},
			curves: []curve{oneWayStream("1KB one-way stream", 16, 1024, func(kb int) registry.Spec {
				return registry.Spec{Platform: "cluster", Ranks: 2, Credit: kb * 1024}
			})}},
		// The paper's central trade: the latency penalty of matching on the
		// Elan (MPICH) over matching on the SPARC.
		{fig: fig("Ablation D", "Latency penalty of Elan (background) matching vs SPARC matching", "bytes", "us RTT delta"),
			xs: []int{1, 64, 256, 1024, 4096},
			curves: []curve{{"mpich - lowlat", func(x *runner, n int) (float64, error) {
				m, err := x.rtt(meikoPair("mpich", 0), n, o.Iters)
				if err != nil {
					return 0, err
				}
				l, err := x.rtt(meikoPair("lowlatency", 0), n, o.Iters)
				return m - l, err
			}}}},
		// What Elan background sending buys: send + compute with blocking vs
		// nonblocking sends of a rendezvous-sized payload.
		{fig: fig("Ablation E", "Overlap from nonblocking sends (Meiko, 200 KB payload)", "compute ms", "us total"),
			xs:     []int{0, 2, 5, 10},
			curves: []curve{overlap("blocking", meiko, false), overlap("nonblocking", meiko, true)}},
	}
}

// oneWayStream is the curve of msgs n-byte messages sent from rank 0 to
// rank 1, each under its own tag, on the world spec(v) describes: the time
// per message in µs.
func oneWayStream(name string, msgs, n int, spec func(v int) registry.Spec) curve {
	return curve{name, func(x *runner, v int) (float64, error) {
		us, err := x.elapsedUS(spec(v), func(c *mpi.Comm) error {
			for i := 0; i < msgs; i++ {
				var err error
				if c.Rank() == 0 {
					err = c.Send(1, i, make([]byte, n))
				} else {
					_, err = c.Recv(0, i, make([]byte, n))
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		return us / float64(msgs), err
	}}
}

// overlap is the curve of a 200 KB send followed by x ms of compute on
// spec's world, the send blocking or not: the total time in µs.
func overlap(name string, spec registry.Spec, nonblocking bool) curve {
	const size = 200_000
	return curve{name, func(x *runner, computeMS int) (float64, error) {
		compute := time.Duration(computeMS) * time.Millisecond // overlap-able work
		return x.elapsedUS(spec, func(c *mpi.Comm) error {
			if c.Rank() != 0 {
				_, err := c.Recv(0, 0, make([]byte, size))
				return err
			}
			data := make([]byte, size)
			if !nonblocking {
				if err := c.Send(1, 0, data); err != nil {
					return err
				}
				c.Compute(compute)
				return nil
			}
			req, err := c.Isend(1, 0, data)
			if err != nil {
				return err
			}
			c.Compute(compute)
			_, err = req.Wait()
			return err
		})
	}}
}
