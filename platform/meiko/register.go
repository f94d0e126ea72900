package meiko

import (
	"fmt"

	"repro/internal/meiko"
	"repro/mpi"
	"repro/platform/registry"
)

// The Meiko backends: the paper's low-latency implementation and the
// MPICH-over-tport baseline, registered so every entrypoint builds them
// through the registry.
func init() {
	registry.Register("meiko/lowlatency", func(s registry.Spec) (*mpi.World, error) {
		return buildWorld(s, LowLatency)
	})
	registry.Register("meiko/mpich", func(s registry.Spec) (*mpi.World, error) {
		return buildWorld(s, MPICH)
	})
}

func buildWorld(s registry.Spec, impl Impl) (*mpi.World, error) {
	cfg, err := specConfig(s)
	if err != nil {
		return nil, err
	}
	cfg.Impl = impl
	w, m := NewWorld(cfg)
	if s.TreeFaults != "" {
		faults, err := meiko.ParseTreeFaults(s.TreeFaults)
		if err != nil {
			return nil, err
		}
		if err := m.Tree.SetFaults(faults); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// specConfig maps the platform-neutral job spec onto this platform's
// Config.
func specConfig(s registry.Spec) (Config, error) {
	cfg := Config{
		Nodes:         s.Ranks,
		Lanes:         s.Lanes,
		Eager:         s.Eager,
		FatTree:       s.FatTree || s.TreeFaults != "",
		EnvelopeSlots: s.EnvelopeSlots,
		Seed:          s.Seed,
	}
	if s.Costs != nil {
		costs, ok := s.Costs.(*meiko.Costs)
		if !ok {
			return Config{}, fmt.Errorf("meiko: spec costs are %T, want *meiko.Costs", s.Costs)
		}
		cfg.Costs = costs
	}
	return cfg, nil
}
