package bench

import (
	"bytes"
	"testing"
)

// The sweep's whole value is its reproducibility: same binary, same seed,
// bit-identical BENCH_faults.json.
func TestFaultsSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full sweeps")
	}
	run := func() []byte {
		res, err := suiteNamed(t, "faults").Run(Opts{Iters: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.Record
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("fault sweep not reproducible:\n%s\nvs\n%s", a, b)
	}
}

// The reliable-UDP series must actually degrade with loss — if it stays
// flat the injector is not under the transport — while the zero-loss
// column matches a fault-free run (the injector's passthrough guarantee).
func TestFaultsSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	rep, err := faultsSweep(Opts{Iters: 1}).run()
	if err != nil {
		t.Fatal(err)
	}
	var udp *FaultsBackend
	for i := range rep.Backends {
		if rep.Backends[i].Backend == "cluster/udp" {
			udp = &rep.Backends[i]
		}
	}
	if udp == nil {
		t.Fatal("no cluster/udp series in the sweep")
	}
	last := len(udp.LatencyUS) - 1
	if udp.LatencyUS[last] <= udp.LatencyUS[0] {
		t.Fatalf("udp latency flat under loss: %.1f us at 0%% vs %.1f us at %g%%",
			udp.LatencyUS[0], udp.LatencyUS[last], rep.LossRates[last]*100)
	}
	if udp.BandwidthMBs[last] >= udp.BandwidthMBs[0] {
		t.Fatalf("udp bandwidth immune to loss: %.2f MB/s at 0%% vs %.2f at %g%%",
			udp.BandwidthMBs[0], udp.BandwidthMBs[last], rep.LossRates[last]*100)
	}
}
