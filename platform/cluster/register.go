package cluster

import (
	"fmt"

	"repro/internal/atm"
	"repro/mpi"
	"repro/platform/registry"
)

// The cluster backends: one per socket transport, all sharing the flow
// layer's credit scheme and the 25-byte wire header.
func init() {
	register := func(name string, kind TransportKind) {
		registry.Register(name, func(s registry.Spec) (*mpi.World, error) {
			cfg, err := specConfig(s)
			if err != nil {
				return nil, err
			}
			cfg.Transport = kind
			if kind == UNET && cfg.Network != atm.OverATM {
				return nil, fmt.Errorf("cluster/unet: the U-Net endpoint exists only on the ATM fabric (network %q)", s.Network)
			}
			w, _, err := newWorld(cfg)
			return w, err
		})
	}
	register("cluster/tcp", TCP)
	register("cluster/udp", UDP)
	register("cluster/unet", UNET)
	register("cluster/shm", SHM)
}

// specConfig maps the platform-neutral job spec onto this platform's
// Config.
func specConfig(s registry.Spec) (Config, error) {
	cfg := Config{
		Hosts:       s.Ranks,
		Lanes:       s.Lanes,
		Eager:       s.Eager,
		CreditBytes: s.Credit,
		TCPNagle:    s.TCPNagle,
		NoRTR:       s.NoRTR,
		Seed:        s.Seed,
	}
	if s.HasFaults() {
		parts, err := atm.ParsePartitions(s.Partition)
		if err != nil {
			return Config{}, fmt.Errorf("cluster: %v", err)
		}
		seed := s.FaultSeed
		if seed == 0 {
			seed = s.Seed
		}
		f := &atm.Faults{
			Seed:       seed,
			Loss:       s.LossRate,
			DropEveryN: s.DropEveryN,
			Delay:      s.Delay,
			Jitter:     s.Jitter,
			Reorder:    s.Reorder,
			Duplicate:  s.Duplicate,
			Partitions: parts,
		}
		if err := f.Validate(); err != nil {
			return Config{}, fmt.Errorf("cluster: %v", err)
		}
		cfg.Faults = f
	}
	switch s.Network {
	case "", "atm":
		cfg.Network = atm.OverATM
	case "eth":
		cfg.Network = atm.OverEthernet
	default:
		return Config{}, fmt.Errorf("cluster: unknown network %q (atm | eth)", s.Network)
	}
	if s.Costs != nil {
		costs, ok := s.Costs.(*atm.Costs)
		if !ok {
			return Config{}, fmt.Errorf("cluster: spec costs are %T, want *atm.Costs", s.Costs)
		}
		cfg.Costs = costs
	}
	return cfg, nil
}
