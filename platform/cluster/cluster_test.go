package cluster

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/mpi"
	"repro/platform/registry"
)

func pingPong(t *testing.T, s registry.Spec, n, iters int) time.Duration {
	t.Helper()
	s.Platform, s.Ranks = "cluster", 2
	var rtt time.Duration
	_, err := registry.Run(s, func(c *mpi.Comm) error {
		data := make([]byte, n)
		buf := make([]byte, n)
		if c.Rank() == 0 {
			start := c.Wtime()
			for i := 0; i < iters; i++ {
				if err := c.Send(1, 0, data); err != nil {
					return err
				}
				if _, err := c.Recv(1, 0, buf); err != nil {
					return err
				}
			}
			rtt = (c.Wtime() - start) / time.Duration(iters)
			return nil
		}
		for i := 0; i < iters; i++ {
			if _, err := c.Recv(0, 0, buf); err != nil {
				return err
			}
			if err := c.Send(0, 0, data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rtt
}

// Figure 5: MPI over TCP adds a near-constant offset (kernel reads and
// matching) over raw TCP on both media, and the ATM/Ethernet ordering of
// raw TCP carries over.
func TestFigure5Shape(t *testing.T) {
	mpiEth := pingPong(t, registry.Spec{Transport: "tcp", Network: "eth"}, 1, 10)
	mpiATM := pingPong(t, registry.Spec{Transport: "tcp", Network: "atm"}, 1, 10)
	// Raw anchors from the substrate calibration.
	rawEth := 925 * time.Microsecond
	rawATM := 1065 * time.Microsecond
	dEth := mpiEth - rawEth
	dATM := mpiATM - rawATM
	if dEth < 150*time.Microsecond || dEth > 450*time.Microsecond {
		t.Fatalf("mpi/tcp/eth overhead = %v; want a few hundred us (paper: reads+matching)", dEth)
	}
	if dATM < 150*time.Microsecond || dATM > 550*time.Microsecond {
		t.Fatalf("mpi/tcp/atm overhead = %v", dATM)
	}
	if mpiATM < mpiEth {
		t.Fatalf("1-byte: mpi/tcp/atm %v < mpi/tcp/eth %v; ATM should be slower for tiny messages", mpiATM, mpiEth)
	}
	// At 8 KB the ATM bandwidth advantage must flip the order.
	bigEth := pingPong(t, registry.Spec{Transport: "tcp", Network: "eth"}, 8192, 5)
	bigATM := pingPong(t, registry.Spec{Transport: "tcp", Network: "atm"}, 8192, 5)
	if bigATM > bigEth {
		t.Fatalf("8KB: mpi/tcp/atm %v > mpi/tcp/eth %v", bigATM, bigEth)
	}
}

// Table 1: the per-message overhead components exist with the paper's
// magnitudes: two header reads (~65 us Ethernet, ~85 us ATM) and ~35 us
// of matching.
func TestTable1Breakdown(t *testing.T) {
	for _, net := range []string{"eth", "atm"} {
		net := net
		t.Run(net, func(t *testing.T) {
			const iters = 10
			rep, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 2, Transport: "tcp", Network: net}, func(c *mpi.Comm) error {
				data := make([]byte, 1)
				if c.Rank() == 0 {
					for i := 0; i < iters; i++ {
						if err := c.Send(1, 0, data); err != nil {
							return err
						}
						if _, err := c.Recv(1, 0, data); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < iters; i++ {
					if _, err := c.Recv(0, 0, data); err != nil {
						return err
					}
					if err := c.Send(0, 0, data); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			acct := rep.RankAccts[1].View()
			perMsg := func(label string) float64 {
				if acct.Count[label] == 0 {
					return float64(acct.Time[label]) / float64(iters) / 1e3
				}
				return float64(acct.Time[label]) / float64(acct.Count[label]) / 1e3
			}
			readType := perMsg("read-type")
			readEnv := perMsg("read-env")
			match := float64(acct.Time["match"]) / float64(acct.Count["recv"]) / 1e3
			wantRead := 65.0
			if net == "atm" {
				wantRead = 85.0
			}
			if readType < wantRead*0.8 || readType > wantRead*1.3 {
				t.Errorf("read-for-type = %.1f us/msg, want ~%.0f (Table 1)", readType, wantRead)
			}
			if readEnv < wantRead*0.8 || readEnv > wantRead*1.3 {
				t.Errorf("read-for-envelope = %.1f us/msg, want ~%.0f (Table 1)", readEnv, wantRead)
			}
			if match < 30 || match > 80 {
				t.Errorf("matching = %.1f us/recv, want ~35-70 (Table 1)", match)
			}
		})
	}
}

// Figure 6 shape: MPI-over-TCP bandwidth approaches raw TCP, and ATM
// exceeds Ethernet severalfold.
func TestFigure6Bandwidth(t *testing.T) {
	bw := func(net string) float64 {
		const chunk = 64 * 1024
		const iters = 8
		var elapsed time.Duration
		_, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 2, Transport: "tcp", Network: net}, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				data := make([]byte, chunk)
				for i := 0; i < iters; i++ {
					if err := c.Send(1, 0, data); err != nil {
						return err
					}
				}
				_, err := c.Recv(1, 1, make([]byte, 1))
				return err
			}
			buf := make([]byte, chunk)
			for i := 0; i < iters; i++ {
				if _, err := c.Recv(0, 0, buf); err != nil {
					return err
				}
			}
			elapsed = c.Wtime()
			return c.Send(0, 1, []byte{1})
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(chunk*iters) / elapsed.Seconds() / 1e6
	}
	eth := bw("eth")
	am := bw("atm")
	if eth < 0.6 || eth > 1.2 {
		t.Fatalf("mpi/tcp/eth bandwidth = %.2f MB/s, want ~0.8-1.1", eth)
	}
	if am < 3 || am > 14 {
		t.Fatalf("mpi/tcp/atm bandwidth = %.2f MB/s", am)
	}
	if am < 3*eth {
		t.Fatalf("atm (%.2f) should be several times eth (%.2f)", am, eth)
	}
}

// The paper's finding: the reliable-UDP MPI performs like the TCP one.
func TestUDPComparableToTCP(t *testing.T) {
	tcp := pingPong(t, registry.Spec{Transport: "tcp", Network: "atm"}, 256, 10)
	udp := pingPong(t, registry.Spec{Transport: "udp", Network: "atm"}, 256, 10)
	ratio := float64(udp) / float64(tcp)
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("udp/tcp RTT ratio = %.2f (udp %v, tcp %v); paper found them similar", ratio, udp, tcp)
	}
}

func TestSemanticsAllVariants(t *testing.T) {
	for _, tr := range []string{"tcp", "udp"} {
		for _, net := range []string{"eth", "atm"} {
			tr, net := tr, net
			t.Run(fmt.Sprintf("%v-%v", tr, net), func(t *testing.T) {
				const n = 4
				_, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: n, Transport: tr, Network: net}, func(c *mpi.Comm) error {
					// Eager and rendezvous sizes with wildcards.
					for _, size := range []int{1, 500, 40_000} {
						if c.Rank() != 0 {
							data := make([]byte, size)
							for i := range data {
								data[i] = byte(i + c.Rank())
							}
							if err := c.Send(0, size%1000, data); err != nil {
								return err
							}
						} else {
							for k := 1; k < n; k++ {
								buf := make([]byte, size)
								st, err := c.Recv(mpi.AnySource, size%1000, buf)
								if err != nil {
									return err
								}
								for i := 0; i < size; i += 97 {
									if buf[i] != byte(i+st.Source) {
										return fmt.Errorf("size %d from %d corrupt at %d", size, st.Source, i)
									}
								}
							}
						}
						if err := c.Barrier(); err != nil {
							return err
						}
					}
					// Collective sanity.
					sum := make([]float64, 1)
					if err := c.AllreduceFloat64(mpi.SumFloat64, []float64{1}, sum); err != nil {
						return err
					}
					if sum[0] != n {
						return fmt.Errorf("allreduce = %v", sum)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestRendezvousLargeMessage(t *testing.T) {
	for _, tr := range []string{"tcp", "udp"} {
		tr := tr
		t.Run(tr, func(t *testing.T) {
			const size = 300_000
			_, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 2, Transport: tr, Network: "atm"}, func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					data := make([]byte, size)
					for i := range data {
						data[i] = byte(i * 13)
					}
					return c.Send(1, 0, data)
				}
				buf := make([]byte, size)
				st, err := c.Recv(0, 0, buf)
				if err != nil {
					return err
				}
				if st.Count != size {
					return fmt.Errorf("count = %d", st.Count)
				}
				for i := 0; i < size; i += 1009 {
					if buf[i] != byte(i*13) {
						return fmt.Errorf("corrupt at %d", i)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCreditFlowControlOneSided(t *testing.T) {
	// Many eager messages to a slow receiver with a small reservation:
	// credits must round-trip (explicit returns) without deadlock.
	_, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 2, Transport: "tcp", Network: "atm", Credit: 4096, Eager: 1000}, func(c *mpi.Comm) error {
		const msgs = 30
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, i, make([]byte, 900)); err != nil {
					return err
				}
			}
			return nil
		}
		c.Compute(20 * time.Millisecond)
		for i := 0; i < msgs; i++ {
			if _, err := c.Recv(0, i, make([]byte, 900)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreditBlocksSender(t *testing.T) {
	const delay = 50 * time.Millisecond
	var allSent time.Duration
	_, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 2, Transport: "tcp", Network: "atm", Credit: 2048, Eager: 1000}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				if err := c.Send(1, i, make([]byte, 900)); err != nil {
					return err
				}
			}
			allSent = c.Wtime()
			return nil
		}
		c.Compute(delay)
		for i := 0; i < 5; i++ {
			if _, err := c.Recv(0, i, make([]byte, 900)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allSent < delay {
		t.Fatalf("5x900B against a 2KB reservation finished at %v, before the receiver drained at %v", allSent, delay)
	}
}

func TestUDPWithLossStillCorrect(t *testing.T) {
	const size = 20_000
	rep, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 2, Transport: "udp", Network: "atm", LossRate: 0.1}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 3)
			}
			for k := 0; k < 3; k++ {
				if err := c.Send(1, k, data); err != nil {
					return err
				}
			}
			return nil
		}
		for k := 0; k < 3; k++ {
			buf := make([]byte, size)
			if _, err := c.Recv(0, k, buf); err != nil {
				return err
			}
			for i := 0; i < size; i += 487 {
				if buf[i] != byte(i*3) {
					return fmt.Errorf("msg %d corrupt at %d", k, i)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
}

func TestSsendBlocksOnCluster(t *testing.T) {
	const delay = 10 * time.Millisecond
	var done time.Duration
	_, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 2, Transport: "tcp", Network: "atm"}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			if err := c.Ssend(1, 0, []byte{1}); err != nil {
				return err
			}
			done = c.Wtime()
			return nil
		}
		c.Compute(delay)
		_, err := c.Recv(0, 0, make([]byte, 1))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if done < delay {
		t.Fatalf("Ssend completed at %v before receive posted at %v", done, delay)
	}
}

func TestEagerPayloadIntegrity(t *testing.T) {
	for _, size := range []int{0, 1, 100, 5000, 15_000} {
		size := size
		_, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 2, Transport: "tcp", Network: "atm"}, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				data := make([]byte, size)
				for i := range data {
					data[i] = byte(i ^ 0x5A)
				}
				return c.Send(1, 0, data)
			}
			buf := make([]byte, size)
			if _, err := c.Recv(0, 0, buf); err != nil {
				return err
			}
			want := make([]byte, size)
			for i := range want {
				want[i] = byte(i ^ 0x5A)
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("size %d corrupted", size)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

func TestLinearVsBinomialBcast(t *testing.T) {
	elapsed := func(alg string) time.Duration {
		rep, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 8, Transport: "tcp", Network: "atm", Coll: "bcast=" + alg}, func(c *mpi.Comm) error {
			buf := make([]byte, 4096)
			for i := 0; i < 5; i++ {
				if err := c.Bcast(0, buf); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxRankElapsed
	}
	lin, bin := elapsed("linear"), elapsed("binomial")
	if bin >= lin {
		t.Fatalf("binomial bcast %v not faster than linear %v at 8 ranks", bin, lin)
	}
}

func TestDeterministicCluster(t *testing.T) {
	run := func() time.Duration {
		rep, err := registry.Run(registry.Spec{Platform: "cluster", Ranks: 4, Transport: "tcp", Network: "eth"}, func(c *mpi.Comm) error {
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxRankElapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// The datagram path's budget per message. A U-Net frame and an eager
// payload are GC-owned, so those rows allocate one payload-sized frame per
// message (also what the receiver reads), with slack to 2x for headers, acks,
// fragments' events and the queues. A udp rendezvous frame is recycled, so
// that row gets 1 KiB (it reads about 75 B). A spurious retransmit shows
// there as about half a frame (ROADMAP item 3): its copy reaches rank 0
// after rank 1's ack has settled the pong, so the pong's frame is released
// last on rank 0's lane and rank 1 draws a fresh one. A per-layer snapshot
// or a scratch read buffer coming back would blow any row several times
// over (the path allocated 11x the payload before frames changed owner).
func TestDatagramPathAllocationBudget(t *testing.T) {
	const size, warm, iters = 32 << 10, 8, 64
	for _, s := range []registry.Spec{
		{Transport: "udp", Network: "atm"},
		{Transport: "unet", Network: "atm"},
		{Transport: "udp", Network: "atm", Eager: 64 << 10},
		{Transport: "unet", Network: "atm", Eager: 64 << 10},
	} {
		s.Platform, s.Ranks = "cluster", 2
		var perMsg uint64
		_, err := registry.Run(s, func(c *mpi.Comm) error {
			data, buf := make([]byte, size), make([]byte, size)
			var m0, m1 runtime.MemStats
			for i := 0; i < warm+iters; i++ {
				if i == warm && c.Rank() == 0 {
					runtime.ReadMemStats(&m0)
				}
				// Rank 0 pings, rank 1 pongs: two messages per iteration.
				if c.Rank() == 0 {
					data[0] = byte(i)
					if err := c.Send(1, 0, data); err != nil {
						return err
					}
				}
				if _, err := c.Recv(1-c.Rank(), 0, buf); err != nil {
					return err
				}
				if c.Rank() == 1 {
					if err := c.Send(0, 0, buf); err != nil {
						return err
					}
				} else if buf[0] != byte(i) {
					return fmt.Errorf("iteration %d echoed %d", i, buf[0])
				}
			}
			if c.Rank() == 0 {
				runtime.ReadMemStats(&m1)
				perMsg = (m1.TotalAlloc - m0.TotalAlloc) / (2 * iters)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		budget := uint64(2 * size)
		if s.Transport == "udp" && s.Eager == 0 { // rendezvous
			budget = 1 << 10
		}
		if perMsg > budget {
			t.Errorf("cluster/%s eager=%d: %d bytes allocated per %d-byte message, budget %d", s.Transport, s.Eager, perMsg, size, budget)
		}
	}
}

// The 16-rank shuffle on cluster/udp, 64 steps of 32 KiB blocks at seed
// 1, where every block is a rendezvous: each goes RTS, CTS and Data naming
// its receive, no payload names a receive that is gone (req-stale), a
// loss-free wire retransmits nothing (ROADMAP item 3), and the events and
// the finish time are pinned to the nanosecond.
func TestShuffleOnOneRendezvous(t *testing.T) {
	const ranks, steps, block = 16, 64, 32 << 10
	w, _, err := build(registry.Spec{Ranks: ranks, Seed: 1}, "udp")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
		send, recv := make([]byte, ranks*block), make([]byte, ranks*block)
		for s := 0; s < steps; s++ {
			if err := c.Alltoall(send, recv); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rndv, stale := rep.Acct.Count["rndv"], rep.Acct.Count["req-stale"]; rndv != ranks*(ranks-1)*steps || stale != 0 {
		t.Errorf("rndv = %d, req-stale = %d; want %d, 0", rndv, stale, ranks*(ranks-1)*steps)
	}
	const events, elapsed = 846032, 8401298239 * time.Nanosecond
	if got := retransmits(rep); got != 0 || rep.Events != events || rep.Elapsed != elapsed {
		t.Errorf("%d retransmits, %d events, elapsed %v; pinned 0, %d, %v: a simulated nanosecond moved",
			got, rep.Events, rep.Elapsed, events, elapsed)
	}
}

// sendrecvMallocs runs legs Sendrecv exchanges of 1 KiB between two
// cluster/tcp ranks and reports the heap objects the whole job allocated.
func sendrecvMallocs(t *testing.T, legs int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := registry.Run(registry.Spec{Platform: "cluster", Transport: "tcp", Ranks: 2}, func(c *mpi.Comm) error {
		out, in := make([]byte, 1024), make([]byte, 1024)
		for tag := 0; tag < legs; tag++ {
			if _, err := c.Sendrecv(1-c.Rank(), tag, out, 1-c.Rank(), tag, in); err != nil {
				return err
			}
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// After warm-up a Sendrecv leg on cluster/tcp allocates nothing: requests,
// surfaced packets, frame scratch, segments and hops are all recycled. Short
// and long runs are subtracted so world construction and warm-up cancel.
func TestSendrecvAllocsPerLegTCP(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// On one P, as testing.AllocsPerRun measures: the runtime's own work
	// (a timer re-armed, a new M for an idle P) then cannot allocate inside
	// the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const short, long, perLeg = 200, 2200, 0
	extra := int64(sendrecvMallocs(t, long)) - int64(sendrecvMallocs(t, short))
	calls := int64(2 * (long - short)) // both ranks
	if budget := perLeg*calls + 64; extra > budget {
		t.Errorf("%d more Sendrecv calls allocated %d more objects (%.2f per call), want at most %d each plus a constant",
			calls, extra, float64(extra)/float64(calls), perLeg)
	}
}

// plainKernel is set under the plainkernel build tag (plainkernel_test.go),
// where tests that pin a shortcut's own counts skip.
var plainKernel bool

// exchange is how dispatchesPerMessage's two ranks trade messages.
type exchange uint8

const (
	sendrecv   exchange = iota // Sendrecv: each rank's events interleave with the other's
	probed                     // Isend, then Probe and Recv, then Wait: each rank finds the message in its own calls
	pingpong                   // rank 0 Sends then Recvs, rank 1 Recvs then Sends: each Recv waits for its message
	probePark                  // pingpong with a Probe before each Recv, which parks before the message lands
	skewed                     // Sendrecv of n bytes from rank 0 and 1 byte back: rank 0's receive completes before its send
	probeIrecv                 // probePark with Irecv+Wait for the Recv: the post takes the queued message
	bcast                      // a Bcast from rank 0, then one from rank 1, forced to linear: each receive is the collectives' Recv
)

func (x exchange) String() string {
	return [...]string{"Sendrecv", "Isend+Probe+Recv", "Send/Recv", "Send/Probe+Recv", "skewed Sendrecv", "Send/Probe+Irecv+Wait", "linear Bcast"}[x]
}

// dispatchesPerMessage runs a 2-rank exchange of n-byte messages on kind
// and reports the proc dispatches each message costs (Report.Dispatches):
// two runs' difference, so the world's start and end cancel.
func dispatchesPerMessage(t *testing.T, kind string, n int, x exchange) float64 {
	t.Helper()
	run := func(iters int) uint64 {
		s := registry.SpecFor(kind)
		s.Ranks, s.Seed = 2, 1
		if x == bcast {
			s.Coll = "bcast=linear"
		}
		w, err := registry.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mpi.Launch(w, func(c *mpi.Comm) error {
			out, in, peer := make([]byte, n), make([]byte, n), 1-c.Rank()
			if x == skewed && c.Rank() == 0 {
				in = in[:1]
			} else if x == skewed {
				out = out[:1]
			}
			recv := func() error {
				if x == probed || x == probePark || x == probeIrecv {
					if _, err := c.Probe(peer, 0); err != nil {
						return err
					}
				}
				if x == probeIrecv {
					r, err := c.Irecv(peer, 0, in)
					if err == nil {
						_, err = r.Wait()
					}
					return err
				}
				_, err := c.Recv(peer, 0, in)
				return err
			}
			for i := 0; i < iters; i++ {
				switch x {
				case sendrecv, skewed:
					if _, err := c.Sendrecv(peer, 0, out, peer, 0, in); err != nil {
						return err
					}
				case bcast:
					for root := range 2 {
						if err := c.Bcast(root, in); err != nil {
							return err
						}
					}
				case probed:
					s, err := c.Isend(peer, 0, out)
					if err != nil {
						return err
					}
					if err := recv(); err != nil {
						return err
					}
					if _, err := s.Wait(); err != nil {
						return err
					}
				default:
					if c.Rank() == 0 {
						if err := c.Send(peer, 0, out); err != nil {
							return err
						}
					}
					if err := recv(); err != nil {
						return err
					}
					if c.Rank() == 1 {
						if err := c.Send(peer, 0, out); err != nil {
							return err
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Dispatches
	}
	const short, long = 10, 110
	return float64(run(long)-run(short)) / (2 * (long - short))
}

// A socket message's reads are one chain (DESIGN §4, relay): the kernel
// runs a TCP frame's type, envelope and payload reads, and an RUDP
// datagram's read and its ack's write, at each charge's wake in the rank's
// place, and a wire's poll, an arrival's match charge, match and copy-out
// are one chain on every wire, in the rank's own calls too. Where a poll
// may charge (every wire but mem) the kernel runs the whole receive at the
// wake of a rank parked in Wait — the poll's reads, the Meiko's slot scan
// and slot-free, or the shared-memory mailbox check, then the match and
// the copy-out — so the rank is dispatched only where the receive leaves
// it work. Per eager 1 KiB message, sender and receiver together, that is
// 5 dispatches on tcp (7 with the rank dispatched at each wake to poll, 8
// with the match and copy-out parked apart, 10 with one dispatch per read)
// and 4 on udp (6, 7, 8), and 3 on cluster/shm (5 with the rank dispatched
// at each wake), whose 64 KiB rendezvous costs 5 (9); on the Meiko a 1 B
// eager message costs 4 (8 with a dispatch per charge) and a 1 KiB
// rendezvous 7 (10), and where each rank finds the message with Probe in
// its own call, 5 (6 with Recv's post and Wait apart, 8 with the poll's
// charges spent one by one). On mem, where a poll charges nothing, the
// kernel polls for a rank parked in Wait at each wake (DESIGN §4, relay at
// a Cond wake), so the wake that only turns an RTS into a CTS dispatches
// no one, and a Sendrecv parks once for its send and its receive
// (Engine.Sendrecv): 1 per rendezvous message (2 with the two Waits parked
// apart, 3 with a dispatch per wake), also where rank 0's 1 B receive
// completes before its 1 KiB send. A
// blocking Recv is one chain from its own charges to the message's
// delivery (Engine.Recv): in a Send/Recv ping-pong the Meiko's 1 B message
// costs 1 dispatch and cluster/shm's 1 KiB 1 (2 each with the post and the
// Wait apart); tcp and udp stay at 2, where the sender's write parks it.
// A Probe that parks before the message lands runs each wake's Iprobe as
// the kernel's relay: 3 per Meiko 1 B ping-pong message (7 with the rank
// dispatched at each wake). The counts are the shortcuts' own, so the
// plain kernel (the plainkernel build tag) skips this test.
func TestDispatchesPerMessage(t *testing.T) {
	if plainKernel {
		t.Skip("the plain kernel takes none of the shortcuts these counts pin")
	}
	for _, c := range []struct {
		kind  string
		bytes int
		x     exchange
		want  float64
	}{{"cluster/tcp", 1024, sendrecv, 5}, {"cluster/udp", 1024, sendrecv, 4}, {"mem", 1024, sendrecv, 1}, {"mem", 1024, skewed, 1},
		{"cluster/shm", 1024, sendrecv, 3}, {"cluster/shm", 64 << 10, sendrecv, 5},
		{"meiko/lowlatency", 1, sendrecv, 4}, {"meiko/lowlatency", 1024, sendrecv, 7},
		{"meiko/lowlatency", 1, probed, 5},
		{"meiko/lowlatency", 1, pingpong, 1}, {"cluster/tcp", 1024, pingpong, 2}, {"cluster/udp", 1024, pingpong, 2},
		{"cluster/shm", 1024, pingpong, 1}, {"meiko/lowlatency", 1, probePark, 3},
		{"meiko/lowlatency", 1, probeIrecv, 3}, // 3 while Irecv's post was a charge apart from its chain
		{"meiko/lowlatency", 1, bcast, 1}} {    // 2 while the collectives' Recv was Irecv + Wait
		if got := dispatchesPerMessage(t, c.kind, c.bytes, c.x); got != c.want {
			t.Errorf("%s, %d B, %v: %.2f dispatches per message, pinned at %v", c.kind, c.bytes, c.x, got, c.want)
		}
	}
}
