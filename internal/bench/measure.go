package bench

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/core"
	"repro/internal/meiko"
	"repro/internal/sim"
	"repro/mpi"
	"repro/platform/registry"

	// Every MPI-level measurement builds its world through the registry;
	// the platforms register themselves on import.
	_ "repro/platform/cluster"
	_ "repro/platform/meiko"
)

// ---- MPI-level measurement primitives --------------------------------

// elapsedUS builds the world spec describes, runs body on every rank and
// reports the slowest rank's elapsed time in microseconds.
func elapsedUS(spec registry.Spec, body func(c *mpi.Comm) error) (float64, error) {
	rep, err := registry.Run(spec, body)
	if err != nil {
		return 0, err
	}
	return float64(rep.MaxRankElapsed) / 1e3, nil
}

// pingPongReport runs an n-byte ping-pong for iters round trips on the world
// spec describes and reports the mean RTT in microseconds plus the launch
// report.
func pingPongReport(spec registry.Spec, n, iters int) (float64, *mpi.Report, error) {
	var rtt time.Duration
	rep, err := registry.Run(spec, func(c *mpi.Comm) error {
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
		if c.Rank() == 1 {
			for i := 0; i < iters; i++ {
				if _, err := c.Recv(0, 0, buf); err != nil {
					return err
				}
				if err := c.Send(0, 0, data); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return float64(rtt) / 1e3, rep, err
}

// mpiPingPong is pingPongReport's mean RTT alone.
func mpiPingPong(spec registry.Spec, n, iters int) (float64, error) {
	us, _, err := pingPongReport(spec, n, iters)
	return us, err
}

// mpiBandwidth streams iters chunks one way on the world spec describes and
// reports MB/s.
func mpiBandwidth(spec registry.Spec, chunk, iters int) (float64, error) {
	mbs, _, err := bandwidthReport(spec, chunk, iters)
	return mbs, err
}

// bandwidthReport is mpiBandwidth plus the launch report.
func bandwidthReport(spec registry.Spec, chunk, iters int) (float64, *mpi.Report, error) {
	var elapsed time.Duration
	rep, err := registry.Run(spec, func(c *mpi.Comm) error {
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
		if c.Rank() == 1 {
			buf := make([]byte, chunk)
			for i := 0; i < iters; i++ {
				if _, err := c.Recv(0, 0, buf); err != nil {
					return err
				}
			}
			elapsed = c.Wtime()
			return c.Send(0, 1, []byte{1})
		}
		return nil
	})
	if err != nil {
		return 0, rep, err
	}
	return float64(chunk*iters) / elapsed.Seconds() / 1e6, rep, nil
}

// MeikoPingPong measures the MPI RTT on the Meiko in µs. impl is a registry
// implementation name ("lowlatency" | "mpich"); eager == 0 uses the
// default 180-byte crossover.
func MeikoPingPong(impl string, eager, size, iters int) (float64, error) {
	return mpiPingPong(registry.Spec{Platform: "meiko", Impl: impl, Ranks: 2, Eager: eager}, size, iters)
}

// MeikoBandwidth measures one-way MPI bandwidth on the Meiko in MB/s.
func MeikoBandwidth(impl string, chunk, iters int) (float64, error) {
	return mpiBandwidth(registry.Spec{Platform: "meiko", Impl: impl, Ranks: 2}, chunk, iters)
}

// ClusterPingPong measures the MPI RTT on the cluster in µs. tr is a registry
// transport name ("tcp" | "udp" | "unet"), net a network name ("atm" | "eth").
func ClusterPingPong(tr, net string, size, iters int) (float64, error) {
	return mpiPingPong(registry.Spec{Platform: "cluster", Transport: tr, Network: net, Ranks: 2}, size, iters)
}

// ClusterBandwidth measures one-way MPI bandwidth on the cluster in MB/s.
func ClusterBandwidth(tr, net string, chunk, iters int) (float64, error) {
	return mpiBandwidth(registry.Spec{Platform: "cluster", Transport: tr, Network: net, Ranks: 2}, chunk, iters)
}

// ---- raw substrate primitives ----------------------------------------

// rawPingPong runs iters round trips between two procs on s — proc 0 sends
// then receives, proc 1 mirrors it — and reports the mean RTT in µs. The
// four callbacks are the substrate's send and receive on each side.
func rawPingPong(s *sim.Scheduler, iters int, send0, recv0, send1, recv1 func(*sim.Proc)) float64 {
	var rtt sim.Duration
	s.Spawn("h0", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < iters; i++ {
			send0(p)
			recv0(p)
		}
		rtt = sim.Duration(p.Now()-start) / sim.Duration(iters)
	})
	s.Spawn("h1", func(p *sim.Proc) {
		for i := 0; i < iters; i++ {
			recv1(p)
			send1(p)
		}
	})
	if _, err := s.Run(); err != nil {
		panic(fmt.Sprintf("raw pingpong: %v", err))
	}
	return float64(rtt) / 1e3
}

// TportPingPong measures the raw tport widget RTT (Figure 2's base line).
func TportPingPong(size, iters int) float64 {
	s := sim.NewScheduler(1)
	s.MaxEvents = 100_000_000
	m := meiko.NewMachine(s, 2, meiko.DefaultCosts())
	t0 := m.NewTport(m.Nodes[0])
	t1 := m.NewTport(m.Nodes[1])
	data := make([]byte, size)
	buf0, buf1 := make([]byte, size), make([]byte, size)
	return rawPingPong(s, iters,
		func(p *sim.Proc) { t0.Send(p, 1, 7, data) },
		func(p *sim.Proc) { t0.Recv(p, 7, ^uint64(0), buf0) },
		func(p *sim.Proc) { t1.Send(p, 0, 7, data) },
		func(p *sim.Proc) { t1.Recv(p, 7, ^uint64(0), buf1) })
}

// TportBandwidth measures raw tport streaming bandwidth in MB/s.
func TportBandwidth(chunk, iters int) float64 {
	s := sim.NewScheduler(1)
	s.MaxEvents = 100_000_000
	m := meiko.NewMachine(s, 2, meiko.DefaultCosts())
	t0 := m.NewTport(m.Nodes[0])
	t1 := m.NewTport(m.Nodes[1])
	var elapsed sim.Duration
	s.Spawn("tx", func(p *sim.Proc) {
		data := make([]byte, chunk)
		for i := 0; i < iters; i++ {
			t0.Send(p, 1, 7, data)
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, chunk)
		for i := 0; i < iters; i++ {
			t1.Recv(p, 7, ^uint64(0), buf)
		}
		elapsed = sim.Duration(p.Now())
	})
	if _, err := s.Run(); err != nil {
		panic(fmt.Sprintf("tport bandwidth: %v", err))
	}
	return float64(chunk*iters) / elapsed.Seconds() / 1e6
}

// rawCluster builds a fresh cluster for a raw-transport measurement.
func rawCluster() (*sim.Scheduler, *atm.Cluster) {
	s := sim.NewScheduler(1)
	s.MaxEvents = 100_000_000
	return s, atm.NewCluster(s, 2, atm.DefaultCosts())
}

// RawTCPPingPong measures raw TCP RTT on the given medium in µs.
func RawTCPPingPong(net atm.MediumKind, size, iters int) float64 {
	s, cl := rawCluster()
	a, b := cl.TCPPair(0, 1, net)
	msg := make([]byte, size)
	buf0, buf1 := make([]byte, size), make([]byte, size)
	return rawPingPong(s, iters,
		func(p *sim.Proc) { a.Write(p, msg) },
		func(p *sim.Proc) { a.ReadFull(p, buf0) },
		func(p *sim.Proc) { b.Write(p, msg) },
		func(p *sim.Proc) { b.ReadFull(p, buf1) })
}

// RawTCPBandwidth measures one-way raw TCP throughput in MB/s.
func RawTCPBandwidth(net atm.MediumKind, total int) float64 {
	s, cl := rawCluster()
	a, b := cl.TCPPair(0, 1, net)
	var elapsed sim.Duration
	s.Spawn("tx", func(p *sim.Proc) {
		const chunk = 32 * 1024
		for sent := 0; sent < total; sent += chunk {
			n := chunk
			if total-sent < n {
				n = total - sent
			}
			a.Write(p, make([]byte, n))
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		buf := make([]byte, total)
		b.ReadFull(p, buf)
		elapsed = sim.Duration(p.Now())
	})
	if _, err := s.Run(); err != nil {
		panic(fmt.Sprintf("tcp bandwidth: %v", err))
	}
	return float64(total) / elapsed.Seconds() / 1e6
}

// datagramSocket is the send/receive pair the raw UDP and AAL3/4 sockets
// share.
type datagramSocket interface {
	SendTo(p *sim.Proc, dst int, data []byte)
	RecvFrom(p *sim.Proc, buf []byte) (int, int)
}

// datagramPingPong ping-pongs size-byte datagrams between hosts 0 and 1,
// a fresh payload per send.
func datagramPingPong(s *sim.Scheduler, s0, s1 datagramSocket, size, iters int) float64 {
	buf0, buf1 := make([]byte, size), make([]byte, size)
	return rawPingPong(s, iters,
		func(p *sim.Proc) { s0.SendTo(p, 1, make([]byte, size)) },
		func(p *sim.Proc) { s0.RecvFrom(p, buf0) },
		func(p *sim.Proc) { s1.SendTo(p, 0, make([]byte, size)) },
		func(p *sim.Proc) { s1.RecvFrom(p, buf1) })
}

// RawUDPPingPong measures raw (unreliable) UDP RTT in µs.
func RawUDPPingPong(net atm.MediumKind, size, iters int) float64 {
	s, cl := rawCluster()
	return datagramPingPong(s, cl.UDPSocket(0, net), cl.UDPSocket(1, net), size, iters)
}

// RawAAL4PingPong measures the Fore API AAL3/4 RTT in µs (ATM only).
func RawAAL4PingPong(size, iters int) float64 {
	s, cl := rawCluster()
	return datagramPingPong(s, cl.AAL4Socket(0), cl.AAL4Socket(1), size, iters)
}

// clusterAcctPingPong runs a 1-byte MPI ping-pong and returns rank 1's
// cost account (Table 1's source).
func clusterAcctPingPong(net string, iters int) (*core.Acct, error) {
	_, rep, err := pingPongReport(registry.Spec{Platform: "cluster", Network: net, Ranks: 2}, 1, iters)
	if err != nil {
		return nil, err
	}
	return rep.RankAccts[1].View(), nil
}
