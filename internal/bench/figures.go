package bench

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/atm"
	"repro/internal/core"
)

// PaperFigures are the paper's nine figures in its order: Figure N is
// PaperFigures[N-1]. `repro -fig` and the anchors record both read it.
var PaperFigures = []func(Opts) (Figure, error){
	Figure1, Figure2, Figure3, Figure4, Figure5, Figure6, Figure7, Figure8, Figure9,
}

// Figure1 regenerates "Meiko transfer mechanisms": round-trip time of the
// buffering (eager) mechanism vs the no-buffering (rendezvous) mechanism,
// whose intersection the paper measures at 180 bytes.
func Figure1(o Opts) (Figure, error) {
	o = o.Norm()
	cross, err := Figure1Crossover()
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:     "Figure 1",
		Title:  "Meiko transfer mechanisms (round-trip time)",
		XLabel: "bytes",
		YLabel: "us",
		Notes:  []string{fmt.Sprintf("measured crossover ~%d bytes (paper: 180)", cross)},
	}.sweep([]int{1, 32, 64, 96, 128, 160, 180, 200, 232, 256, 264, 320, 384, 448, 512},
		curve{"Buffering", func(n int) (float64, error) { return MeikoPingPong("lowlatency", 1<<20, n, o.Iters) }}, // force eager
		curve{"No buffering", func(n int) (float64, error) { return MeikoPingPong("lowlatency", 1, n, o.Iters) }})  // force rendezvous
}

// Figure1Crossover scans for the eager/rendezvous break-even size.
func Figure1Crossover() (int, error) {
	lo := 0
	for n := 16; n <= 512; n += 16 {
		e, err := MeikoPingPong("lowlatency", 1<<20, n, 3)
		if err != nil {
			return 0, err
		}
		r, err := MeikoPingPong("lowlatency", 1, n, 3)
		if err != nil {
			return 0, err
		}
		if e <= r {
			lo = n
		} else {
			return lo + 8, nil
		}
	}
	return lo, nil
}

// Figure2 regenerates "Meiko round-trip latency": MPICH, the low-latency
// implementation, and the raw tport widget.
func Figure2(o Opts) (Figure, error) {
	o = o.Norm()
	return Figure{
		ID:     "Figure 2",
		Title:  "Meiko round-trip latency",
		XLabel: "bytes",
		YLabel: "us",
		Notes:  []string{"paper anchors at 1 byte: tport 52, low latency 104, mpich 210 us"},
	}.sweep(latencySizes,
		curve{"MPI(mpich)", func(n int) (float64, error) { return MeikoPingPong("mpich", 0, n, o.Iters) }},
		curve{"MPI(low latency)", func(n int) (float64, error) { return MeikoPingPong("lowlatency", 0, n, o.Iters) }},
		curve{"Meiko tport", func(n int) (float64, error) { return TportPingPong(n, o.Iters), nil }})
}

// Figure3 regenerates "Meiko bandwidth" for large transfers.
func Figure3(Opts) (Figure, error) {
	return Figure{
		ID:     "Figure 3",
		Title:  "Meiko bandwidth",
		XLabel: "bytes",
		YLabel: "MB/s",
		Notes:  []string{"paper: best DMA bandwidth of 39 MB/s nearly reached"},
	}.sweep(bandwidthSizes,
		curve{"MPI(mpich)", func(n int) (float64, error) { return MeikoBandwidth("mpich", n, 4) }},
		curve{"MPI(low latency)", func(n int) (float64, error) { return MeikoBandwidth("lowlatency", n, 4) }},
		curve{"Meiko tport", func(n int) (float64, error) { return TportBandwidth(n, 4), nil }})
}

// Figure4 regenerates "ATM round-trip latency": TCP vs UDP vs Fore AAL4.
func Figure4(o Opts) (Figure, error) {
	o = o.Norm()
	return Figure{
		ID:     "Figure 4",
		Title:  "ATM round-trip latency (raw transports)",
		XLabel: "bytes",
		YLabel: "us",
		Notes:  []string{"paper: except for small sizes the protocols are indistinguishable (STREAMS overhead)"},
	}.sweep(latencySizes,
		curve{"TCP", func(n int) (float64, error) { return RawTCPPingPong(atm.OverATM, n, o.Iters), nil }},
		curve{"UDP", func(n int) (float64, error) { return RawUDPPingPong(atm.OverATM, n, o.Iters), nil }},
		curve{"Fore aal4", func(n int) (float64, error) { return RawAAL4PingPong(n, o.Iters), nil }})
}

// Figure5 regenerates "TCP round-trip latency": MPI over TCP vs raw TCP on
// both media.
func Figure5(o Opts) (Figure, error) {
	o = o.Norm()
	return Figure{
		ID:     "Figure 5",
		Title:  "TCP round-trip latency",
		XLabel: "bytes",
		YLabel: "us",
		Notes:  []string{"paper anchors at 1 byte: tcp/eth 925, tcp/atm 1065 us; MPI adds envelope reads + matching"},
	}.sweep(append(slices.Clip(latencySizes), 8192),
		curve{"mpi/tcp/atm", func(n int) (float64, error) { return ClusterPingPong("tcp", "atm", n, o.Iters) }},
		curve{"mpi/tcp/eth", func(n int) (float64, error) { return ClusterPingPong("tcp", "eth", n, o.Iters) }},
		curve{"tcp/atm", func(n int) (float64, error) { return RawTCPPingPong(atm.OverATM, n, o.Iters), nil }},
		curve{"tcp/eth", func(n int) (float64, error) { return RawTCPPingPong(atm.OverEthernet, n, o.Iters), nil }})
}

// Figure6 regenerates "TCP bandwidth".
func Figure6(Opts) (Figure, error) {
	return Figure{
		ID:     "Figure 6",
		Title:  "TCP bandwidth",
		XLabel: "bytes",
		YLabel: "MB/s",
	}.sweep([]int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 512 << 10},
		curve{"mpi/tcp/atm", func(n int) (float64, error) { return ClusterBandwidth("tcp", "atm", n, 4) }},
		curve{"mpi/tcp/eth", func(n int) (float64, error) { return ClusterBandwidth("tcp", "eth", n, 4) }},
		curve{"tcp/atm", func(n int) (float64, error) { return RawTCPBandwidth(atm.OverATM, 4*n), nil }},
		curve{"tcp/eth", func(n int) (float64, error) { return RawTCPBandwidth(atm.OverEthernet, 4*n), nil }})
}

// Table1Data is the regenerated Table 1: the MPI-over-TCP overhead
// breakdown for a 1-byte message, per medium, derived from the engine's
// cost accounting rather than subtraction.
type Table1Data struct {
	Rows []Table1Row
}

// Table1Row is one line of the table (values in µs).
type Table1Row struct {
	Name string  `json:"name"`
	ATM  float64 `json:"atm_us"`
	Eth  float64 `json:"eth_us"`
}

// String renders the table like the paper's.
func (t Table1Data) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: MPI round-trip overheads with TCP\n")
	fmt.Fprintf(&b, "%12s %12s   %s\n", "ATM", "Ethernet", "Overhead")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%9.0f us %9.0f us   %s\n", r.ATM, r.Eth, r.Name)
	}
	return b.String()
}

// Table1 regenerates the overhead breakdown.
func Table1(o Opts) (Table1Data, error) {
	o = o.Norm()
	iters := o.Iters * 4
	rawATM := RawTCPPingPong(atm.OverATM, 1, iters)
	rawEth := RawTCPPingPong(atm.OverEthernet, 1, iters)
	// The 25-byte protocol header's wire cost: raw RTT at 26 bytes minus
	// raw RTT at 1 byte.
	infoATM := RawTCPPingPong(atm.OverATM, 26, iters) - rawATM
	infoEth := RawTCPPingPong(atm.OverEthernet, 26, iters) - rawEth

	acctATM, err := clusterAcctPingPong("atm", iters)
	if err != nil {
		return Table1Data{}, err
	}
	acctEth, err := clusterAcctPingPong("eth", iters)
	if err != nil {
		return Table1Data{}, err
	}
	read := func(acct *core.Acct, label string) float64 {
		if acct.Count[label] == 0 {
			return 0
		}
		return float64(acct.Time[label]) / float64(acct.Count[label]) / 1e3
	}
	match := func(acct *core.Acct) float64 {
		if acct.Count["recv"] == 0 {
			return 0
		}
		return float64(acct.Time["match"]) / float64(acct.Count["recv"]) / 1e3
	}
	return Table1Data{Rows: []Table1Row{
		{"1 byte round-trip latency", rawATM, rawEth},
		{"25 byte info overhead (round trip)", infoATM, infoEth},
		{"Read for msg type", read(acctATM, "read-type"), read(acctEth, "read-type")},
		{"Read for envelope", read(acctATM, "read-env"), read(acctEth, "read-env")},
		{"Overheads for matching", match(acctATM), match(acctEth)},
	}}, nil
}
