package bench

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/meiko"
	"repro/internal/sim"
	"repro/mpi"
	"repro/platform/registry"
)

// ---- MPI-level measurement primitives --------------------------------

// measured is one MPI measurement and the run behind it.
type measured struct {
	v   float64
	rep *mpi.Report
}

// pingPong runs an n-byte ping-pong for iters round trips on the world
// spec describes and reports the mean RTT in microseconds plus the launch
// report. A report's points share it.
func (x *runner) pingPong(spec registry.Spec, n, iters int) (float64, *mpi.Report, error) {
	m, err := once(x, fmt.Sprint("pingpong", spec, n, iters), func() (measured, error) {
		var rtt time.Duration
		rep, err := x.launch(spec, func(c *mpi.Comm) error {
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
		return measured{float64(rtt) / 1e3, rep}, err
	})
	return m.v, m.rep, err
}

// rtt is pingPong's mean RTT alone.
func (x *runner) rtt(spec registry.Spec, n, iters int) (float64, error) {
	us, _, err := x.pingPong(spec, n, iters)
	return us, err
}

// bandwidth streams iters chunks one way on the world spec describes and
// reports MB/s plus the launch report.
func (x *runner) bandwidth(spec registry.Spec, chunk, iters int) (float64, *mpi.Report, error) {
	var elapsed time.Duration
	rep, err := x.launch(spec, func(c *mpi.Comm) error {
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

// elapsedUS runs body on every rank of spec's world and reports the slowest
// rank's elapsed time in microseconds.
func (x *runner) elapsedUS(spec registry.Spec, body func(c *mpi.Comm) error) (float64, error) {
	rep, err := x.launch(spec, body)
	if err != nil {
		return 0, err
	}
	return float64(rep.MaxRankElapsed) / 1e3, nil
}

// meikoPair is the 2-rank Meiko world of implementation impl ("lowlatency" |
// "mpich"); eager == 0 keeps the default 180-byte crossover.
func meikoPair(impl string, eager int) registry.Spec {
	return registry.Spec{Platform: "meiko", Impl: impl, Ranks: 2, Eager: eager}
}

// clusterPair is the 2-host cluster world of transport tr ("tcp" | "udp" |
// "unet") on network net ("atm" | "eth").
func clusterPair(tr, net string) registry.Spec {
	return registry.Spec{Platform: "cluster", Transport: tr, Network: net, Ranks: 2}
}

// ---- raw substrate primitives ----------------------------------------

// rawTCP is the raw TCP round trip in µs on medium net ("atm" | "eth"),
// shared by a report's points.
func (x *runner) rawTCP(net string, n, iters int) float64 {
	us, _ := once(x, fmt.Sprint("raw tcp ", net, n, iters), func() (float64, error) {
		return RawTCPPingPong(map[string]atm.MediumKind{"atm": atm.OverATM, "eth": atm.OverEthernet}[net], n, iters), nil
	})
	return us
}

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

// rawStream runs tx and rx on two procs of s and reports when rx is done.
func rawStream(s *sim.Scheduler, tx, rx func(p *sim.Proc)) sim.Duration {
	var elapsed sim.Duration
	s.Spawn("tx", tx)
	s.Spawn("rx", func(p *sim.Proc) {
		rx(p)
		elapsed = sim.Duration(p.Now())
	})
	if _, err := s.Run(); err != nil {
		panic(fmt.Sprintf("raw stream: %v", err))
	}
	return elapsed
}

// rawMeiko builds a fresh 2-node Meiko and a tport on each node.
func rawMeiko() (*sim.Scheduler, *meiko.Tport, *meiko.Tport) {
	s := sim.NewScheduler(1)
	s.MaxEvents = 100_000_000
	m := meiko.NewMachine(s, 2, meiko.DefaultCosts())
	return s, m.NewTport(m.Nodes[0]), m.NewTport(m.Nodes[1])
}

// TportPingPong measures the raw tport widget RTT (Figure 2's base line).
func TportPingPong(size, iters int) float64 {
	s, t0, t1 := rawMeiko()
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
	s, t0, t1 := rawMeiko()
	elapsed := rawStream(s, func(p *sim.Proc) {
		data := make([]byte, chunk)
		for i := 0; i < iters; i++ {
			t0.Send(p, 1, 7, data)
		}
	}, func(p *sim.Proc) {
		buf := make([]byte, chunk)
		for i := 0; i < iters; i++ {
			t1.Recv(p, 7, ^uint64(0), buf)
		}
	})
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
	elapsed := rawStream(s, func(p *sim.Proc) {
		const chunk = 32 * 1024
		for sent := 0; sent < total; sent += chunk {
			a.Write(p, make([]byte, min(chunk, total-sent)))
		}
	}, func(p *sim.Proc) { b.ReadFull(p, make([]byte, total)) })
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
