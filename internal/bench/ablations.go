package bench

import (
	"fmt"
	"strings"
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
	Figures []FigureJSON `json:"figures"`
}

func (r AblationsReport) figures() []Figure { return figuresOf(r.Figures) }

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
		rep.Figures = append(rep.Figures, f.record())
	}
	return rep, nil
}

// formatAblations renders the figures as text tables, a blank line between
// them.
func formatAblations(r AblationsReport) string {
	var tables []string
	for _, f := range r.figures() {
		tables = append(tables, f.String())
	}
	return strings.Join(tables, "\n")
}

// AblationThreshold sweeps the Meiko eager/rendezvous threshold and
// reports the 256-byte round trip — showing why the measured 180-byte
// crossover is the right setting (256 B should use rendezvous; thresholds
// above it force buffering).
func AblationThreshold(o Opts) (Figure, error) {
	o = o.Norm()
	thresholds := []int{1, 64, 128, 180, 256, 512, 1024}
	const size = 256
	var s Series
	s.Name = fmt.Sprintf("%dB RTT", size)
	for _, th := range thresholds {
		us, err := MeikoPingPong("lowlatency", th, size, o.Iters)
		if err != nil {
			return Figure{}, err
		}
		s.Points = append(s.Points, Point{th, us})
	}
	return Figure{
		ID:     "Ablation A",
		Title:  "Eager/rendezvous threshold sweep (Meiko, 256-byte messages)",
		XLabel: "threshold",
		YLabel: "us",
		Series: []Series{s},
		Notes:  []string{"messages above the 180-byte crossover should rendezvous; forcing eager pays the bounce copy"},
	}, nil
}

// AblationBcast compares broadcast algorithms on the Meiko: the hardware
// broadcast against linear and binomial point-to-point trees.
func AblationBcast(o Opts) (Figure, error) {
	o = o.Norm()
	procs := []int{2, 4, 8, 16}
	fig := Figure{
		ID:     "Ablation B",
		Title:  "Broadcast algorithm (Meiko, 1 KB payload, per-bcast time)",
		XLabel: "# processes",
		YLabel: "us",
	}
	for _, alg := range []string{"hardware", "binomial", "linear"} {
		s := Series{Name: alg}
		for _, p := range procs {
			rep, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: p, Coll: "bcast=" + alg}, func(c *mpi.Comm) error {
				buf := make([]byte, 1024)
				for i := 0; i < o.Iters; i++ {
					if err := c.Bcast(0, buf); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return Figure{}, err
			}
			s.Points = append(s.Points, Point{p, float64(rep.MaxRankElapsed) / 1e3 / float64(o.Iters)})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationBcastLarge compares broadcast algorithms for bulk payloads,
// where the pipelined chain overlaps stages that a binomial tree
// serializes (128 KB payload on the Meiko).
func AblationBcastLarge(o Opts) (Figure, error) {
	o = o.Norm()
	procs := []int{4, 8, 16}
	fig := Figure{
		ID:     "Ablation B2",
		Title:  "Large-payload broadcast (Meiko, 128 KB, per-bcast time)",
		XLabel: "# processes",
		YLabel: "us",
		Notes: []string{
			"pipelined rendezvous lands in user buffers; the hardware broadcast pays a slot-to-user copy at bulk sizes",
		},
	}
	for _, alg := range []string{"hardware", "binomial", "pipelined"} {
		s := Series{Name: alg}
		for _, p := range procs {
			rep, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: p, Coll: "bcast=" + alg}, func(c *mpi.Comm) error {
				buf := make([]byte, 128<<10)
				for i := 0; i < 3; i++ {
					if err := c.Bcast(0, buf); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return Figure{}, err
			}
			s.Points = append(s.Points, Point{p, float64(rep.MaxRankElapsed) / 1e3 / 3})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationUDPLoss measures the reliable-UDP MPI round trip under
// increasing datagram loss, exposing the retransmission cost that the
// paper's reliability layer hides at zero loss.
func AblationUDPLoss(o Opts) (Figure, error) {
	o = o.Norm()
	rates := []int{0, 5, 10, 20} // percent
	var s Series
	s.Name = "256B RTT"
	for _, r := range rates {
		w, err := registry.Build(registry.Spec{
			Platform:  "cluster",
			Transport: "udp",
			Ranks:     2,
			LossRate:  float64(r) / 100,
		})
		if err != nil {
			return Figure{}, err
		}
		us, err := mpiPingPong(w, 256, o.Iters*4)
		if err != nil {
			return Figure{}, err
		}
		s.Points = append(s.Points, Point{r, us})
	}
	return Figure{
		ID:     "Ablation C",
		Title:  "Reliable-UDP MPI under datagram loss (ATM)",
		XLabel: "loss %",
		YLabel: "us",
		Series: []Series{s},
		Notes:  []string{"retransmission timeouts dominate once loss is non-negligible"},
	}, nil
}

// AblationMatchLocation isolates the SPARC-vs-Elan matching question by
// reporting the per-size latency penalty of the MPICH (Elan) baseline over
// the low-latency (SPARC) implementation — the paper's central trade.
func AblationMatchLocation(o Opts) (Figure, error) {
	o = o.Norm()
	var s Series
	s.Name = "mpich - lowlat"
	for _, n := range []int{1, 64, 256, 1024, 4096} {
		m, err := MeikoPingPong("mpich", 0, n, o.Iters)
		if err != nil {
			return Figure{}, err
		}
		l, err := MeikoPingPong("lowlatency", 0, n, o.Iters)
		if err != nil {
			return Figure{}, err
		}
		s.Points = append(s.Points, Point{n, m - l})
	}
	return Figure{
		ID:     "Ablation D",
		Title:  "Latency penalty of Elan (background) matching vs SPARC matching",
		XLabel: "bytes",
		YLabel: "us RTT delta",
		Series: []Series{s},
	}, nil
}

// AblationNagle measures what the era's implementors learned the hard
// way: leaving Nagle + delayed acks enabled stalls one-way small-message
// streams on the ack timer, while TCP_NODELAY (the library default, as the
// paper's latencies presuppose) flows at wire speed. One-way burst of
// 100-byte eager messages over TCP/ATM; per-message latency.
func AblationNagle(o Opts) (Figure, error) {
	o = o.Norm()
	run := func(nagle bool) (float64, error) {
		w, err := registry.Build(registry.Spec{Platform: "cluster", Ranks: 2, TCPNagle: nagle})
		if err != nil {
			return 0, err
		}
		const msgs = 20
		rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < msgs; i++ {
					if err := c.Send(1, i, make([]byte, 100)); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < msgs; i++ {
				if _, err := c.Recv(0, i, make([]byte, 100)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		return float64(rep.MaxRankElapsed) / 1e3 / msgs, nil
	}
	nodelay, err := run(false)
	if err != nil {
		return Figure{}, err
	}
	nagle, err := run(true)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "Ablation F",
		Title:  "TCP_NODELAY vs Nagle+delayed-ack (one-way 100B eager stream)",
		XLabel: "variant (0=nodelay, 1=nagle)",
		YLabel: "us per message",
		Series: []Series{{Name: "per-message latency", Points: []Point{{0, nodelay}, {1, nagle}}}},
		Notes:  []string{"single-write framing keeps ping-pong safe; one-way streams still hit the ack timer"},
	}, nil
}

// AblationUNet realizes the paper's future-work pointer (related work:
// U-Net, Thekkath et al.): replace the kernel TCP path with user-level
// networking on the same ATM hardware and measure the 1-byte MPI round
// trip against the paper's transports.
func AblationUNet(o Opts) (Figure, error) {
	o = o.Norm()
	var s Series
	s.Name = "1B MPI RTT"
	kinds := []struct {
		x  int
		tr string
	}{{0, "unet"}, {1, "udp"}, {2, "tcp"}}
	for _, k := range kinds {
		us, err := ClusterPingPong(k.tr, "atm", 1, o.Iters)
		if err != nil {
			return Figure{}, err
		}
		s.Points = append(s.Points, Point{k.x, us})
	}
	return Figure{
		ID:     "Ablation G",
		Title:  "User-level networking (0=unet, 1=udp, 2=tcp; MPI over ATM)",
		XLabel: "transport",
		YLabel: "us RTT",
		Series: []Series{s},
		Notes:  []string{"kernel bypass removes the syscall/protocol/driver costs Table 1 charges"},
	}, nil
}

// AblationSlots sweeps the per-pair envelope slot count on the Meiko: the
// paper allocates exactly one (minimizing latency and receiver memory),
// which serializes back-to-back eager streams on the slot-free round trip;
// extra slots pipeline them. Per-message time of a one-way 100-byte burst.
func AblationSlots(o Opts) (Figure, error) {
	o = o.Norm()
	var s Series
	s.Name = "100B one-way stream"
	for _, slots := range []int{1, 2, 4, 8} {
		w, err := registry.Build(registry.Spec{Platform: "meiko", Ranks: 2, EnvelopeSlots: slots})
		if err != nil {
			return Figure{}, err
		}
		const msgs = 20
		rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < msgs; i++ {
					if err := c.Send(1, i, make([]byte, 100)); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < msgs; i++ {
				if _, err := c.Recv(0, i, make([]byte, 100)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return Figure{}, err
		}
		s.Points = append(s.Points, Point{slots, float64(rep.MaxRankElapsed) / 1e3 / msgs})
	}
	return Figure{
		ID:     "Ablation H",
		Title:  "Envelope slots per pair (Meiko, one-way eager stream)",
		XLabel: "slots",
		YLabel: "us per message",
		Series: []Series{s},
		Notes: []string{
			"negative result: receiver-side processing dominates the slot-free round trip,",
			"so one slot per pair (the paper's choice) costs streams nothing",
		},
	}, nil
}

// AblationCredits sweeps the cluster's per-pair reservation: small
// reservations stall optimistic senders on credit round trips.
func AblationCredits(o Opts) (Figure, error) {
	o = o.Norm()
	var s Series
	s.Name = "1KB one-way stream"
	for _, kb := range []int{2, 4, 16, 64} {
		w, err := registry.Build(registry.Spec{Platform: "cluster", Ranks: 2, Credit: kb * 1024})
		if err != nil {
			return Figure{}, err
		}
		const msgs = 16
		rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				for i := 0; i < msgs; i++ {
					if err := c.Send(1, i, make([]byte, 1024)); err != nil {
						return err
					}
				}
				return nil
			}
			for i := 0; i < msgs; i++ {
				if _, err := c.Recv(0, i, make([]byte, 1024)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return Figure{}, err
		}
		s.Points = append(s.Points, Point{kb, float64(rep.MaxRankElapsed) / 1e3 / msgs})
	}
	return Figure{
		ID:     "Ablation I",
		Title:  "Per-pair credit reservation (cluster, one-way eager stream)",
		XLabel: "KB reserved",
		YLabel: "us per message",
		Series: []Series{s},
		Notes:  []string{"the paper's receiver-reserved memory: big enough and senders never stall"},
	}, nil
}

// AblationNonblockingOverlap quantifies what Elan background sending buys:
// total time for send+compute with blocking vs nonblocking sends on the
// Meiko (rendezvous-sized payload).
func AblationNonblockingOverlap(o Opts) (Figure, error) {
	o = o.Norm()
	const size = 200_000
	compute := []int{0, 2, 5, 10} // ms of overlap-able work
	run := func(nonblocking bool, computeMS int) (float64, error) {
		rep, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 2}, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				data := make([]byte, size)
				if nonblocking {
					req, err := c.Isend(1, 0, data)
					if err != nil {
						return err
					}
					c.Compute(time.Duration(computeMS) * time.Millisecond)
					_, err = req.Wait()
					return err
				}
				if err := c.Send(1, 0, data); err != nil {
					return err
				}
				c.Compute(time.Duration(computeMS) * time.Millisecond)
				return nil
			}
			_, err := c.Recv(0, 0, make([]byte, size))
			return err
		})
		if err != nil {
			return 0, err
		}
		return float64(rep.MaxRankElapsed) / 1e3, nil
	}
	var blk, nb Series
	blk.Name = "blocking"
	nb.Name = "nonblocking"
	for _, ms := range compute {
		b, err := run(false, ms)
		if err != nil {
			return Figure{}, err
		}
		n, err := run(true, ms)
		if err != nil {
			return Figure{}, err
		}
		blk.Points = append(blk.Points, Point{ms, b})
		nb.Points = append(nb.Points, Point{ms, n})
	}
	return Figure{
		ID:     "Ablation E",
		Title:  "Overlap from nonblocking sends (Meiko, 200 KB payload)",
		XLabel: "compute ms",
		YLabel: "us total",
		Series: []Series{blk, nb},
	}, nil
}
