package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/atm"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/meiko"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/mpi"
)

// metric is one named measurement with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// metrics collects measurements in the order they are taken.
type metrics []metric

func (m *metrics) add(name string, v float64, unit string) {
	*m = append(*m, metric{name, v, unit})
}

// cost is what one operation of a driver costs the host.
type cost struct{ ns, mallocs, bytes float64 }

// hostCost runs fn in five batches and reports the median host time,
// heap objects and heap bytes per operation; fn performs about n
// operations, set-up included, and returns how many it did.
func hostCost(sp *spans, name string, n int, fn func(n int) int) cost {
	const batches = 5
	var nss, ms, bs [batches]float64
	sp.do("driver:"+name, func() {
		for i := range nss {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			ops := float64(fn(n))
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			nss[i] = float64(d.Nanoseconds()) / ops
			ms[i] = float64(m1.Mallocs-m0.Mallocs) / ops
			bs[i] = float64(m1.TotalAlloc-m0.TotalAlloc) / ops
		}
	})
	return cost{median(nss[:]), median(ms[:]), median(bs[:])}
}

// must stops the benchmark on a driver that cannot run: drivers are fixed
// programs over fixed inputs, so an error here is a bug, not a measurement.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// driverMetrics times each layer's public functions in isolation: a tight
// loop over a warm structure, with nothing else of the stack running.
// scale shrinks the iteration counts along with the workloads.
func driverMetrics(sp *spans, ms *metrics, scale float64) {
	iters := func(base int) int { return max(1, int(float64(base)*scale)) }
	var c cost
	events := hostCost(sp, "sim.sched.event", iters(200_000), schedEvents)
	ms.add("sim.sched.ns_per_event", events.ns, "ns")
	ms.add("sim.sched.allocs_per_event", events.mallocs, "count")
	c = hostCost(sp, "sim.sched.switch", iters(5_000), func(n int) int {
		s := sim.NewScheduler(1)
		switchLoop(s, n)
		_, err := s.Run()
		must(err)
		return 4 * n
	})
	ms.add("sim.sched.ns_per_switch", c.ns, "ns")
	c = hostCost(sp, "sim.shard.switch", iters(20_000), func(n int) int {
		sh := sim.NewShard(1, 1, time.Microsecond)
		switchLoop(sh.Lane(0), n)
		_, err := sh.Run()
		must(err)
		return 4 * n
	})
	ms.add("sim.shard.ns_per_switch", c.ns, "ns")
	c = hostCost(sp, "sim.shard.routed", iters(100_000), shardRouted)
	ms.add("sim.shard.ns_per_routed", c.ns, "ns")

	c = hostCost(sp, "core.match.posted", iters(200_000), matchPosted)
	ms.add("core.match.posted_ns", c.ns, "ns")
	c = hostCost(sp, "core.match.unexpected", iters(200_000), matchUnexpected)
	ms.add("core.match.unexpected_ns", c.ns, "ns")
	c = hostCost(sp, "core.match.wildcard", iters(200_000), matchWildcard)
	ms.add("core.match.wildcard_ns", c.ns, "ns")
	c = hostCost(sp, "core.pool.getput", iters(500_000), func(n int) int {
		p := core.NewBufPool(core.NewAcct())
		for i := 0; i < n; i++ {
			p.Put(p.Get(1024))
		}
		return n
	})
	ms.add("core.pool.getput_ns", c.ns, "ns")
	c = hostCost(sp, "core.acct.charge", iters(500_000), func(n int) int {
		a := core.NewAcct()
		for i := 0; i < n; i++ {
			a.Incr("send", 1)
			a.Book(core.CostWire, time.Microsecond)
		}
		return n
	})
	ms.add("core.acct.charge_ns", c.ns, "ns")

	c = hostCost(sp, "flow.wire.codec", iters(1_000_000), func(n int) int {
		var h [flow.HeaderBytes]byte
		env := core.Envelope{Source: 3, Tag: 7, Context: 2, Count: 1024, SendID: 9}
		sum := 0
		for i := 0; i < n; i++ {
			flow.EncodeHeaderInto(h[:], core.PktEager, i, env, 0)
			_, credit, got, _ := flow.DecodeHeader(h[:])
			sum += credit + got.Count
		}
		sink = sum
		return n
	})
	ms.add("flow.wire.codec_ns", c.ns, "ns")
	c = hostCost(sp, "flow.queue.offer_grant", iters(500_000), func(n int) int {
		// One slot toward peer 1: the first offer ships, the second queues,
		// the first grant ships it and the second restores the slot.
		q := flow.NewQueue(2, 1, 1, func(*core.Request) int { return 1 }, core.NewAcct())
		a, b := &core.Request{Env: core.Envelope{Dest: 1}}, &core.Request{Env: core.Envelope{Dest: 1}}
		shipped := 0
		ship := func(*core.Request) { shipped++ }
		for i := 0; i < n; i++ {
			q.Offer(a)
			q.Offer(b)
			q.Grant(1, 1, ship)
			q.Grant(1, 1, ship)
		}
		if shipped != n {
			panic(fmt.Sprintf("flow driver shipped %d of %d queued sends", shipped, n))
		}
		return n
	})
	ms.add("flow.queue.offer_grant_ns", c.ns, "ns")

	c = hostCost(sp, "atm.tcp.rtt", iters(1_000), func(n int) int {
		s, cl := rawCluster()
		a, b := cl.TCPPair(0, 1, atm.OverATM)
		msg, buf0, buf1 := make([]byte, 1024), make([]byte, 1024), make([]byte, 1024)
		rawPingPong(s, n,
			func(p *sim.Proc) { a.Write(p, msg) }, func(p *sim.Proc) { a.ReadFull(p, buf0) },
			func(p *sim.Proc) { b.Write(p, msg) }, func(p *sim.Proc) { b.ReadFull(p, buf1) })
		return n
	})
	ms.add("atm.tcp.rtt_host_ns", c.ns, "ns")
	c = hostCost(sp, "atm.udp.rtt", iters(1_000), func(n int) int { return udpPingPong(n, 1024) })
	ms.add("atm.udp.rtt_host_ns", c.ns, "ns")
	const big = 32 << 10 // the shuffle_udp block: fragmented and reassembled
	alloc := hostCost(sp, "atm.udp.alloc", iters(100), func(n int) int { return udpPingPong(n, big) })
	ms.add("atm.udp.alloc_bytes_per_payload_byte", alloc.bytes/(2*big), "ratio")

	c = hostCost(sp, "meiko.tport.rtt", iters(2_000), func(n int) int {
		s := sim.NewScheduler(1)
		m := meiko.NewMachine(s, 2, meiko.DefaultCosts())
		t0, t1 := m.NewTport(m.Nodes[0]), m.NewTport(m.Nodes[1])
		msg, buf0, buf1 := make([]byte, 1), make([]byte, 1), make([]byte, 1)
		rawPingPong(s, n,
			func(p *sim.Proc) { t0.Send(p, 1, 7, msg) }, func(p *sim.Proc) { t0.Recv(p, 7, ^uint64(0), buf0) },
			func(p *sim.Proc) { t1.Send(p, 0, 7, msg) }, func(p *sim.Proc) { t1.Recv(p, 7, ^uint64(0), buf1) })
		return n
	})
	ms.add("meiko.tport.rtt_host_ns", c.ns, "ns")
	c = hostCost(sp, "meiko.dma", iters(50_000), func(n int) int {
		s := sim.NewScheduler(1)
		m := meiko.NewMachine(s, 2, meiko.DefaultCosts())
		left := n
		var next func()
		next = func() {
			if left > 0 {
				left--
				m.Nodes[0].DMA(1, 64<<10, nil, next)
			}
		}
		s.At(0, next)
		_, err := s.Run()
		must(err)
		return n
	})
	ms.add("meiko.dma.host_ns", c.ns, "ns")

	c = hostCost(sp, "trace.log.add", iters(200_000), func(n int) int {
		l := &trace.Log{}
		for i := 0; i < n; i++ {
			l.Add(trace.Event{T: sim.Time(i), Rank: i & 63, Kind: trace.SendStart, Peer: 1, Tag: i, Bytes: 1024, Note: "standard"})
		}
		return n
	})
	ms.add("trace.log.add_ns", c.ns, "ns")
}

// sink keeps a driver's result alive so the compiler cannot drop the loop.
var sink int

// schedEvents runs 64 self-rescheduling event chains for about n events.
func schedEvents(n int) int {
	s := sim.NewScheduler(1)
	left := n
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			s.After(time.Microsecond, tick)
		}
	}
	for i := 0; i < 64; i++ {
		s.At(sim.Time(i), tick)
	}
	_, err := s.Run()
	must(err)
	return int(s.Events())
}

// switchLoop spawns two procs on s that hand control back and forth n
// times over a pair of conditions, advancing the clock in between: four
// proc switches per round.
func switchLoop(s *sim.Scheduler, n int) {
	ca, cb := sim.NewCond(s), sim.NewCond(s)
	s.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(time.Microsecond)
			cb.Signal()
			ca.Wait(p)
		}
	})
	s.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			cb.Wait(p)
			p.Advance(time.Microsecond)
			ca.Signal()
		}
	})
}

// shardRouted bounces 32 event chains between the two lanes of a shard,
// so every event is a cross-lane Route merged at an epoch barrier.
func shardRouted(n int) int {
	sh := sim.NewShard(1, 2, time.Microsecond)
	left := n
	var bounce [2]func()
	for lane := range bounce {
		bounce[lane] = func() {
			if left > 0 {
				left--
				sh.Lane(lane).RouteAfter(1-lane, time.Microsecond, bounce[1-lane])
			}
		}
	}
	for i := 0; i < 32; i++ {
		sh.Lane(0).At(sim.Time(i), bounce[0])
	}
	_, err := sh.Run()
	must(err)
	return int(sh.Stats().Routed)
}

// matchPosted is the engine's arrival path at posted depth 64: the
// arrival matches the last-posted receive, which is then re-posted.
func matchPosted(n int) int {
	var m core.Matcher
	const depth = 64
	for i := 0; i < depth; i++ {
		m.PostRecv(&core.Request{IsRecv: true, Env: core.Envelope{Source: i % 4, Tag: i}})
	}
	env := core.Envelope{Source: (depth - 1) % 4, Tag: depth - 1}
	for i := 0; i < n; i++ {
		m.PostRecv(m.Arrive(env))
	}
	return n
}

// matchUnexpected is the receive path at unexpected depth 256: the posted
// receive takes the last-queued message, which is then re-queued.
func matchUnexpected(n int) int {
	var m core.Matcher
	const depth = 256
	for i := 0; i < depth; i++ {
		m.AddUnexpected(&core.InMsg{Env: core.Envelope{Source: i % 4, Tag: i, Seq: uint64(i + 1)}})
	}
	req := &core.Request{IsRecv: true, Env: core.Envelope{Source: (depth - 1) % 4, Tag: depth - 1}}
	for i := 0; i < n; i++ {
		m.AddUnexpected(m.PostRecv(req))
	}
	return n
}

// matchWildcard is the rpc server's pattern: an AnySource/AnyTag receive
// posted behind 64 specific ones that do not match the arrival.
func matchWildcard(n int) int {
	var m core.Matcher
	for i := 0; i < 64; i++ {
		m.PostRecv(&core.Request{IsRecv: true, Env: core.Envelope{Source: i % 4, Tag: i}})
	}
	m.PostRecv(&core.Request{IsRecv: true, Env: core.Envelope{Source: core.AnySource, Tag: core.AnyTag}})
	env := core.Envelope{Source: 5, Tag: 1000}
	for i := 0; i < n; i++ {
		m.PostRecv(m.Arrive(env))
	}
	return n
}

func rawCluster() (*sim.Scheduler, *atm.Cluster) {
	s := sim.NewScheduler(1)
	return s, atm.NewCluster(s, 2, atm.DefaultCosts())
}

// rawPingPong runs n round trips between two procs on s; host 0 sends
// first. The closures wrap one transport's blocking send and receive.
func rawPingPong(s *sim.Scheduler, n int, send0, recv0, send1, recv1 func(*sim.Proc)) {
	s.Spawn("h0", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			send0(p)
			recv0(p)
		}
	})
	s.Spawn("h1", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			recv1(p)
			send1(p)
		}
	})
	_, err := s.Run()
	must(err)
}

// udpPingPong bounces size-byte datagrams over raw UDP sockets on the ATM
// medium, reusing its buffers so every allocation counted is the stack's.
func udpPingPong(n, size int) int {
	s, cl := rawCluster()
	u0, u1 := cl.UDPSocket(0, atm.OverATM), cl.UDPSocket(1, atm.OverATM)
	msg, buf0, buf1 := make([]byte, size), make([]byte, size), make([]byte, size)
	rawPingPong(s, n,
		func(p *sim.Proc) { u0.SendTo(p, 1, msg) }, func(p *sim.Proc) { u0.RecvFrom(p, buf0) },
		func(p *sim.Proc) { u1.SendTo(p, 0, msg) }, func(p *sim.Proc) { u1.RecvFrom(p, buf1) })
	return n
}

// traceCodecMetrics times the workload trace codec on the workload's own
// recording, so the event mix is the real one.
func traceCodecMetrics(sp *spans, ms *metrics, tr *workload.Trace) {
	var enc []byte
	var c cost
	c = hostCost(sp, "workload.trace.marshal", 1, func(int) int {
		enc = tr.Marshal()
		return len(tr.Events)
	})
	ms.add("workload.trace.marshal_ns_per_event", c.ns, "ns")
	c = hostCost(sp, "workload.trace.unmarshal", 1, func(int) int {
		_, err := workload.Unmarshal(enc)
		must(err)
		return len(tr.Events)
	})
	ms.add("workload.trace.unmarshal_ns_per_event", c.ns, "ns")
	ms.add("workload.trace.bytes_per_event", float64(len(enc))/float64(len(tr.Events)), "B")
}

// simCostLabels are the simulated-clock ledger's categories, in the order
// DESIGN.md §10 lists them.
var simCostLabels = []string{
	core.CostWire, core.CostSyscall, core.CostKernel, core.CostCopy, core.CostMatch,
	core.CostProtocol, core.CostSync, core.CostOverhead, core.CostCompute,
}

// countMetrics turns the exact counters one repetition's report exposes
// into per-operation numbers. They repeat exactly for a given seed.
func countMetrics(ms *metrics, b benchWorkload, res *workload.Result) {
	report, ops := res.Report, float64(b.ops())
	count := func(name string) float64 { return float64(report.Acct.Count[name]) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	ms.add("sim_elapsed_us", res.Summary.ElapsedUS, "sim_us")
	ms.add("sim_p50_us", res.Summary.P50US, "sim_us")
	ms.add("sim_p99_us", res.Summary.P99US, "sim_us")
	ms.add("sim_slo_samples", float64(res.Summary.Events), "count")

	ms.add("sim.events_per_op", float64(report.Events)/ops, "count")
	var sh sim.ShardStats
	if report.Shard != nil {
		sh = *report.Shard
	}
	ms.add("sim.shard.epochs_per_kevent", ratio(float64(sh.Epochs)*1000, float64(sh.Events)), "count")
	ms.add("sim.shard.stall_ratio", ratio(float64(sh.Stalls), float64(sh.Epochs)*float64(sh.Lanes)), "ratio")
	ms.add("sim.shard.mailbox_max", float64(sh.MailboxHighWater), "count")

	sends := count("send")
	ms.add("core.msgs_per_op", sends/ops, "count")
	ms.add("core.eager_ratio", ratio(count("eager"), count("eager")+count("rndv")+count("rndv-rtr")), "ratio")
	ms.add("core.match.posted_max", count("match.posted-max"), "count")
	ms.add("core.match.unexpected_max", count("match.unexpected-max"), "count")
	ms.add("core.pool.hit_ratio", ratio(count(core.PoolHit), count(core.PoolHit)+count(core.PoolMiss)), "ratio")
	ms.add("flow.queued_ratio", ratio(count("flow-queued"), sends), "ratio")

	var rounds int64
	for name, n := range report.Acct.Count {
		if strings.HasPrefix(name, "coll.") && strings.HasSuffix(name, ".rounds") {
			rounds += n
		}
	}
	ms.add("coll.rounds_per_op", float64(rounds)/ops, "count")

	for _, label := range simCostLabels {
		us := float64(report.Acct.Time[label]) / float64(time.Microsecond)
		ms.add("simcost."+label+"_us_per_op", us/ops, "sim_us")
	}
}

// collMessages counts, from a message timeline, the sends each rank
// issued while inside a collective.
func collMessages(l *trace.Log) int {
	depth := map[int]int{}
	n := 0
	for _, e := range l.Events() {
		switch e.Kind {
		case trace.CollectiveStart:
			depth[e.Rank]++
		case trace.CollectiveDone:
			depth[e.Rank]--
		case trace.SendStart:
			if depth[e.Rank] > 0 {
				n++
			}
		}
	}
	return n
}

// anchorNames are the short names of bench.Anchors' rows, in its order.
var anchorNames = []string{
	"tport_rtt", "lowlat_rtt", "mpich_rtt", "crossover", "dma_bw",
	"tcp_eth_rtt", "tcp_atm_rtt", "read_type_eth", "read_type_atm", "match",
}

// modelMetrics reports how far each calibration anchor sits from the
// paper's number, in percent of the paper's.
func modelMetrics(sp *spans, ms *metrics) error {
	var as []bench.Anchor
	var err error
	sp.do("bench.Anchors", func() { as, err = bench.Anchors(bench.Opts{Iters: 3}) })
	if err != nil {
		return err
	}
	if len(as) != len(anchorNames) {
		return fmt.Errorf("bench.Anchors returned %d rows, the benchmark names %d", len(as), len(anchorNames))
	}
	for i, a := range as {
		ms.add("model.err_pct."+anchorNames[i], math.Abs(a.Measured-a.Paper)/a.Paper*100, "%")
	}
	return nil
}

// firstRankDiff reports the first rank whose virtual finish time differs
// between two runs of one job, or -1.
func firstRankDiff(a, b *mpi.Report) int {
	for i := range a.RankElapsed {
		if i >= len(b.RankElapsed) || a.RankElapsed[i] != b.RankElapsed[i] {
			return i
		}
	}
	return -1
}
