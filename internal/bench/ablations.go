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
// BENCH_ablations.json: every ablation figure, in the order Ablations runs
// them. All of it is simulated time, so the record is byte-reproducible.
type AblationsReport struct {
	Figures []Figure `json:"figures"`
}

func (r AblationsReport) figures() []Figure { return r.Figures }

// Ablations runs every ablation sweep.
func Ablations(o Opts) (AblationsReport, error) {
	var rep AblationsReport
	for _, fn := range []func(Opts) (Figure, error){
		AblationThreshold,
		AblationBcast,
		AblationBcastLarge,
		AblationUDPLoss,
		AblationNagle,
		AblationUNet,
		AblationSlots,
		AblationCredits,
		AblationMatchLocation,
		AblationNonblockingOverlap,
	} {
		f, err := fn(o)
		if err != nil {
			return rep, err
		}
		rep.Figures = append(rep.Figures, f)
	}
	return rep, nil
}

func formatAblations(r AblationsReport) string { return formatFigures(r.Figures) }

// AblationThreshold sweeps the Meiko eager/rendezvous threshold and
// reports the 256-byte round trip — showing why the measured 180-byte
// crossover is the right setting (256 B should use rendezvous; thresholds
// above it force buffering).
func AblationThreshold(o Opts) (Figure, error) {
	o = o.Norm()
	return Figure{
		ID:     "Ablation A",
		Title:  "Eager/rendezvous threshold sweep (Meiko, 256-byte messages)",
		XLabel: "threshold",
		YLabel: "us",
		Notes:  []string{"messages above the 180-byte crossover should rendezvous; forcing eager pays the bounce copy"},
	}.sweep([]int{1, 64, 128, 180, 256, 512, 1024},
		curve{"256B RTT", func(th int) (float64, error) { return MeikoPingPong("lowlatency", th, 256, o.Iters) }})
}

// meikoBcast is one curve of a broadcast ablation: the per-call time in µs
// of iters n-byte broadcasts under algorithm alg, by process count.
func meikoBcast(alg string, n, iters int) curve {
	return curve{alg, func(p int) (float64, error) {
		us, err := elapsedUS(registry.Spec{Platform: "meiko", Ranks: p, Coll: "bcast=" + alg}, func(c *mpi.Comm) error {
			return collBody(c, "bcast", n, iters)
		})
		return us / float64(iters), err
	}}
}

// AblationBcast compares broadcast algorithms on the Meiko: the hardware
// broadcast against linear and binomial point-to-point trees.
func AblationBcast(o Opts) (Figure, error) {
	o = o.Norm()
	return Figure{
		ID:     "Ablation B",
		Title:  "Broadcast algorithm (Meiko, 1 KB payload, per-bcast time)",
		XLabel: "# processes",
		YLabel: "us",
	}.sweep([]int{2, 4, 8, 16},
		meikoBcast("hardware", 1024, o.Iters), meikoBcast("binomial", 1024, o.Iters), meikoBcast("linear", 1024, o.Iters))
}

// AblationBcastLarge compares broadcast algorithms for bulk payloads,
// where the pipelined chain overlaps stages that a binomial tree
// serializes (128 KB payload on the Meiko).
func AblationBcastLarge(Opts) (Figure, error) {
	return Figure{
		ID:     "Ablation B2",
		Title:  "Large-payload broadcast (Meiko, 128 KB, per-bcast time)",
		XLabel: "# processes",
		YLabel: "us",
		Notes: []string{
			"pipelined rendezvous lands in user buffers; the hardware broadcast pays a slot-to-user copy at bulk sizes",
		},
	}.sweep([]int{4, 8, 16},
		meikoBcast("hardware", 128<<10, 3), meikoBcast("binomial", 128<<10, 3), meikoBcast("pipelined", 128<<10, 3))
}

// AblationUDPLoss measures the reliable-UDP MPI round trip under
// increasing datagram loss, exposing the retransmission cost that the
// paper's reliability layer hides at zero loss.
func AblationUDPLoss(o Opts) (Figure, error) {
	o = o.Norm()
	return Figure{
		ID:     "Ablation C",
		Title:  "Reliable-UDP MPI under datagram loss (ATM)",
		XLabel: "loss %",
		YLabel: "us",
		Notes:  []string{"retransmission timeouts dominate once loss is non-negligible"},
	}.sweep([]int{0, 5, 10, 20},
		curve{"256B RTT", func(pct int) (float64, error) {
			spec := registry.Spec{Platform: "cluster", Transport: "udp", Ranks: 2, LossRate: float64(pct) / 100}
			return mpiPingPong(spec, 256, o.Iters*4)
		}})
}

// AblationMatchLocation isolates the SPARC-vs-Elan matching question by
// reporting the per-size latency penalty of the MPICH (Elan) baseline over
// the low-latency (SPARC) implementation — the paper's central trade.
func AblationMatchLocation(o Opts) (Figure, error) {
	o = o.Norm()
	return Figure{
		ID:     "Ablation D",
		Title:  "Latency penalty of Elan (background) matching vs SPARC matching",
		XLabel: "bytes",
		YLabel: "us RTT delta",
	}.sweep([]int{1, 64, 256, 1024, 4096},
		curve{"mpich - lowlat", func(n int) (float64, error) {
			m, err := MeikoPingPong("mpich", 0, n, o.Iters)
			if err != nil {
				return 0, err
			}
			l, err := MeikoPingPong("lowlatency", 0, n, o.Iters)
			return m - l, err
		}})
}

// oneWayStream sends msgs messages of n bytes from rank 0 to rank 1, each
// under its own tag, and reports the time per message in µs.
func oneWayStream(spec registry.Spec, msgs, n int) (float64, error) {
	us, err := elapsedUS(spec, func(c *mpi.Comm) error {
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
}

// AblationNagle measures what the era's implementors learned the hard
// way: leaving Nagle + delayed acks enabled stalls one-way small-message
// streams on the ack timer, while TCP_NODELAY (the library default, as the
// paper's latencies presuppose) flows at wire speed. One-way burst of
// 100-byte eager messages over TCP/ATM; per-message latency.
func AblationNagle(Opts) (Figure, error) {
	return Figure{
		ID:     "Ablation F",
		Title:  "TCP_NODELAY vs Nagle+delayed-ack (one-way 100B eager stream)",
		XLabel: "variant (0=nodelay, 1=nagle)",
		YLabel: "us per message",
		Notes:  []string{"single-write framing keeps ping-pong safe; one-way streams still hit the ack timer"},
	}.sweep([]int{0, 1},
		curve{"per-message latency", func(nagle int) (float64, error) {
			return oneWayStream(registry.Spec{Platform: "cluster", Ranks: 2, TCPNagle: nagle == 1}, 20, 100)
		}})
}

// AblationUNet realizes the paper's future-work pointer (related work:
// U-Net, Thekkath et al.): replace the kernel TCP path with user-level
// networking on the same ATM hardware and measure the 1-byte MPI round
// trip against the paper's transports.
func AblationUNet(o Opts) (Figure, error) {
	o = o.Norm()
	transports := []string{"unet", "udp", "tcp"}
	return Figure{
		ID:     "Ablation G",
		Title:  "User-level networking (0=unet, 1=udp, 2=tcp; MPI over ATM)",
		XLabel: "transport",
		YLabel: "us RTT",
		Notes:  []string{"kernel bypass removes the syscall/protocol/driver costs Table 1 charges"},
	}.sweep([]int{0, 1, 2},
		curve{"1B MPI RTT", func(i int) (float64, error) { return ClusterPingPong(transports[i], "atm", 1, o.Iters) }})
}

// AblationSlots sweeps the per-pair envelope slot count on the Meiko: the
// paper allocates exactly one (minimizing latency and receiver memory),
// which serializes back-to-back eager streams on the slot-free round trip;
// extra slots pipeline them. Per-message time of a one-way 100-byte burst.
func AblationSlots(Opts) (Figure, error) {
	return Figure{
		ID:     "Ablation H",
		Title:  "Envelope slots per pair (Meiko, one-way eager stream)",
		XLabel: "slots",
		YLabel: "us per message",
		Notes: []string{
			"negative result: receiver-side processing dominates the slot-free round trip,",
			"so one slot per pair (the paper's choice) costs streams nothing",
		},
	}.sweep([]int{1, 2, 4, 8},
		curve{"100B one-way stream", func(slots int) (float64, error) {
			return oneWayStream(registry.Spec{Platform: "meiko", Ranks: 2, EnvelopeSlots: slots}, 20, 100)
		}})
}

// AblationCredits sweeps the cluster's per-pair reservation: small
// reservations stall optimistic senders on credit round trips.
func AblationCredits(Opts) (Figure, error) {
	return Figure{
		ID:     "Ablation I",
		Title:  "Per-pair credit reservation (cluster, one-way eager stream)",
		XLabel: "KB reserved",
		YLabel: "us per message",
		Notes:  []string{"the paper's receiver-reserved memory: big enough and senders never stall"},
	}.sweep([]int{2, 4, 16, 64},
		curve{"1KB one-way stream", func(kb int) (float64, error) {
			return oneWayStream(registry.Spec{Platform: "cluster", Ranks: 2, Credit: kb * 1024}, 16, 1024)
		}})
}

// AblationNonblockingOverlap quantifies what Elan background sending buys:
// total time for send+compute with blocking vs nonblocking sends on the
// Meiko (rendezvous-sized payload).
func AblationNonblockingOverlap(Opts) (Figure, error) {
	const size = 200_000
	run := func(nonblocking bool) func(int) (float64, error) {
		return func(computeMS int) (float64, error) {
			compute := time.Duration(computeMS) * time.Millisecond // overlap-able work
			return elapsedUS(registry.Spec{Platform: "meiko", Ranks: 2}, func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					data := make([]byte, size)
					if nonblocking {
						req, err := c.Isend(1, 0, data)
						if err != nil {
							return err
						}
						c.Compute(compute)
						_, err = req.Wait()
						return err
					}
					if err := c.Send(1, 0, data); err != nil {
						return err
					}
					c.Compute(compute)
					return nil
				}
				_, err := c.Recv(0, 0, make([]byte, size))
				return err
			})
		}
	}
	return Figure{
		ID:     "Ablation E",
		Title:  "Overlap from nonblocking sends (Meiko, 200 KB payload)",
		XLabel: "compute ms",
		YLabel: "us total",
	}.sweep([]int{0, 2, 5, 10}, curve{"blocking", run(false)}, curve{"nonblocking", run(true)})
}
