package meiko

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

// pingPong measures the average round-trip time of n-byte messages.
func pingPong(t *testing.T, s registry.Spec, n, iters int) time.Duration {
	t.Helper()
	s.Platform, s.Ranks = "meiko", 2
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

// Paper anchor (Figure 2): the low-latency MPI 1-byte round trip is 104 µs.
func TestLowLatencyRTTCalibration(t *testing.T) {
	us := float64(pingPong(t, registry.Spec{Impl: "lowlatency"}, 1, 20)) / 1e3
	if us < 99 || us > 109 {
		t.Fatalf("low-latency 1-byte RTT = %.1f us, want ~104 (paper anchor)", us)
	}
}

// Paper anchor (Figure 2): MPICH over tport adds 158 µs to the 52 µs tport
// round trip: 210 µs total.
func TestMPICHRTTCalibration(t *testing.T) {
	us := float64(pingPong(t, registry.Spec{Impl: "mpich"}, 1, 20)) / 1e3
	if us < 198 || us > 222 {
		t.Fatalf("MPICH 1-byte RTT = %.1f us, want ~210 (paper anchor)", us)
	}
}

// Figure 2's ordering: tport < low-latency MPI < MPICH at every size.
func TestFigure2Ordering(t *testing.T) {
	for _, n := range []int{1, 64, 256, 1024} {
		low := pingPong(t, registry.Spec{Impl: "lowlatency"}, n, 5)
		mpich := pingPong(t, registry.Spec{Impl: "mpich"}, n, 5)
		if low >= mpich {
			t.Fatalf("size %d: low-latency %v >= mpich %v", n, low, mpich)
		}
	}
}

// Figure 1: the eager ("buffering") path wins below the crossover and the
// rendezvous ("no buffering") path wins above it; with the default cost
// model the crossover sits near the paper's 180 bytes.
func TestFigure1Crossover(t *testing.T) {
	eagerOnly := func(n int) time.Duration {
		return pingPong(t, registry.Spec{Impl: "lowlatency", Eager: 1 << 20}, n, 5)
	}
	rndvOnly := func(n int) time.Duration {
		return pingPong(t, registry.Spec{Impl: "lowlatency", Eager: 1}, n, 5)
	}
	if e, r := eagerOnly(16), rndvOnly(16); e >= r {
		t.Fatalf("16B: eager %v >= rendezvous %v; small messages should prefer buffering", e, r)
	}
	if e, r := eagerOnly(4096), rndvOnly(4096); e <= r {
		t.Fatalf("4KB: eager %v <= rendezvous %v; large messages should prefer DMA", e, r)
	}
	// Locate the crossover by scanning.
	lo, hi := 0, 0
	for n := 16; n <= 1024; n += 16 {
		if eagerOnly(n) <= rndvOnly(n) {
			lo = n
		} else if hi == 0 {
			hi = n
		}
	}
	if lo == 0 || hi == 0 || lo < 120 || hi > 280 {
		t.Fatalf("crossover between %d and %d bytes, want near 180 (paper anchor)", lo, hi)
	}
}

// Figure 3: both implementations approach the 39 MB/s DMA bandwidth for
// large transfers, with the low-latency implementation at least as fast.
func TestFigure3Bandwidth(t *testing.T) {
	bw := func(impl string) float64 {
		const chunk = 256 * 1024
		const iters = 8
		var elapsed time.Duration
		_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 2, Impl: impl}, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				data := make([]byte, chunk)
				for i := 0; i < iters; i++ {
					if err := c.Send(1, 0, data); err != nil {
						return err
					}
				}
				// Wait for the final ack so timing covers delivery.
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
	low := bw("lowlatency")
	mpich := bw("mpich")
	if low < 33 || low > 41 {
		t.Fatalf("low-latency bandwidth = %.1f MB/s, want ~36-39 (paper anchor)", low)
	}
	if mpich < 28 || mpich > 41 {
		t.Fatalf("MPICH bandwidth = %.1f MB/s, want near DMA rate", mpich)
	}
	if low < mpich {
		t.Fatalf("low-latency (%.1f) should be at least MPICH (%.1f)", low, mpich)
	}
}

// The full MPI semantics suite runs identically on both implementations.
func TestSemanticsBothImpls(t *testing.T) {
	for _, impl := range []string{"lowlatency", "mpich"} {
		impl := impl
		t.Run(impl, func(t *testing.T) {
			const n = 4
			_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: n, Impl: impl}, func(c *mpi.Comm) error {
				// Wildcards + payload integrity, eager and rendezvous sizes.
				for _, size := range []int{3, 100, 5000} {
					if c.Rank() != 0 {
						data := make([]byte, size)
						for i := range data {
							data[i] = byte(i + c.Rank())
						}
						if err := c.Send(0, size, data); err != nil {
							return err
						}
					} else {
						for k := 1; k < n; k++ {
							buf := make([]byte, size)
							st, err := c.Recv(mpi.AnySource, size, buf)
							if err != nil {
								return err
							}
							for i := range buf {
								if buf[i] != byte(i+st.Source) {
									return fmt.Errorf("size %d from %d: corrupt at %d", size, st.Source, i)
								}
							}
						}
					}
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				// Ssend blocks for the match (ranks synchronize first so
				// the timing assertion is meaningful).
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 1 {
					start := c.Wtime()
					if err := c.Ssend(0, 99, []byte{1}); err != nil {
						return err
					}
					if c.Wtime()-start < 900*time.Microsecond {
						return fmt.Errorf("Ssend returned in %v, before the 1ms-delayed receive", c.Wtime()-start)
					}
				}
				if c.Rank() == 0 {
					c.Compute(time.Millisecond)
					if _, err := c.Recv(1, 99, make([]byte, 1)); err != nil {
						return err
					}
				}
				// Probe.
				if c.Rank() == 2 {
					if err := c.Send(3, 7, []byte("probe me")); err != nil {
						return err
					}
				}
				if c.Rank() == 3 {
					st, err := c.Probe(2, 7)
					if err != nil {
						return err
					}
					if st.Count != 8 {
						return fmt.Errorf("probe count = %d", st.Count)
					}
					buf := make([]byte, st.Count)
					if _, err := c.Recv(st.Source, st.Tag, buf); err != nil {
						return err
					}
					if !bytes.Equal(buf, []byte("probe me")) {
						return fmt.Errorf("probe recv got %q", buf)
					}
				}
				return c.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestHardwareBcastUsedAndCorrect(t *testing.T) {
	const n = 8
	rep, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: n, Impl: "lowlatency"}, func(c *mpi.Comm) error {
		buf := make([]byte, 1000)
		if c.Rank() == 3 {
			for i := range buf {
				buf[i] = byte(i * 5)
			}
		}
		if err := c.Bcast(3, buf); err != nil {
			return err
		}
		for i := range buf {
			if buf[i] != byte(i*5) {
				return fmt.Errorf("rank %d: bcast corrupt at %d", c.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acct.Count["hwbcast"] == 0 {
		t.Fatal("hardware broadcast not used by the low-latency implementation")
	}
}

// Figure 7's structural claim: broadcasting with the hardware is much
// cheaper than MPICH's point-to-point tree.
func TestHWBcastBeatsTreeBcast(t *testing.T) {
	elapsed := func(impl string) time.Duration {
		rep, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 16, Impl: impl}, func(c *mpi.Comm) error {
			buf := make([]byte, 1024)
			for i := 0; i < 20; i++ {
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
	hw, tree := elapsed("lowlatency"), elapsed("mpich")
	if hw >= tree {
		t.Fatalf("hardware bcast %v >= mpich tree bcast %v", hw, tree)
	}
}

func TestRepeatedHWBcastDifferentRoots(t *testing.T) {
	const n = 4
	_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: n, Impl: "lowlatency"}, func(c *mpi.Comm) error {
		for round := 0; round < 8; round++ {
			root := round % n
			buf := make([]byte, 64)
			if c.Rank() == root {
				for i := range buf {
					buf[i] = byte(round*10 + i)
				}
			}
			if err := c.Bcast(root, buf); err != nil {
				return err
			}
			if buf[1] != byte(round*10+1) {
				return fmt.Errorf("round %d rank %d: got %d", round, c.Rank(), buf[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSlotFlowControlSerializesEagerSends(t *testing.T) {
	// With one envelope slot per pair, a burst of eager sends to a slow
	// receiver must wait for slot-free acks — but never deadlock.
	_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 2, Impl: "lowlatency"}, func(c *mpi.Comm) error {
		const msgs = 20
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, i, make([]byte, 100)); err != nil {
					return err
				}
			}
			return nil
		}
		c.Compute(5 * time.Millisecond)
		for i := 0; i < msgs; i++ {
			if _, err := c.Recv(0, i, make([]byte, 100)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonblockingOverlapLowLat(t *testing.T) {
	// Isend + compute + Wait: the paper's motivation for Elan sends in the
	// background — the SPARC is free during the transfer.
	_, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 2, Impl: "lowlatency"}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			req, err := c.Isend(1, 0, make([]byte, 50_000))
			if err != nil {
				return err
			}
			c.Compute(10 * time.Millisecond)
			_, err = req.Wait()
			return err
		}
		_, err := c.Recv(0, 0, make([]byte, 50_000))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func(impl string) time.Duration {
		rep, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 4, Impl: impl}, func(c *mpi.Comm) error {
			return c.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxRankElapsed
	}
	for _, impl := range []string{"lowlatency", "mpich"} {
		if a, b := run(impl), run(impl); a != b {
			t.Fatalf("%v nondeterministic: %v vs %v", impl, a, b)
		}
	}
}

// pingPongMallocs runs trips n-byte round trips on meiko/lowlatency with
// the given lanes and reports the heap objects the whole job allocated.
func pingPongMallocs(t *testing.T, lanes, n, trips int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pingPong(t, registry.Spec{Impl: "lowlatency", Lanes: lanes}, n, trips)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// The paper's round trip allocates nothing once warm, on either side of the
// 180-byte crossover and whether or not the two nodes share a lane: its
// four engine requests are recycled as each blocking call returns; flights,
// Elan transfer records and rendezvous records are pooled; and every bounce
// buffer — the eager envelope slot's and the DMA's payload copy — is drawn
// from the sender's pool and returned to the receiver's. Short and long
// runs are subtracted so world construction and warm-up cancel.
func TestPingPongAllocFree(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// On one P, as testing.AllocsPerRun measures: the runtime's own work
	// (a timer re-armed, a new M for an idle P) then cannot allocate inside
	// the window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const short, long = 200, 2200
	for _, lanes := range []int{0, 2} {
		for _, n := range []int{1, 1024} {
			t.Run(fmt.Sprintf("lanes%d/%dB", lanes, n), func(t *testing.T) {
				extra := int64(pingPongMallocs(t, lanes, n, long)) - int64(pingPongMallocs(t, lanes, n, short))
				if extra > 64 {
					t.Errorf("%d more round trips allocated %d more objects (%.2f each), want a constant", long-short, extra, float64(extra)/(long-short))
				}
			})
		}
	}
}
