package cluster

import (
	"fmt"

	"repro/internal/atm"
	"repro/mpi"
	"repro/platform/registry"
)

// The cluster backends: one per transport, the socket ones sharing the flow
// layer's credit scheme and the 25-byte wire header.
func init() {
	for _, kind := range []string{"tcp", "udp", "unet", "shm"} {
		registry.Register("cluster/"+kind, func(s registry.Spec) (*mpi.World, error) {
			w, _, err := build(s, kind)
			return w, err
		})
	}
}

// faultPolicy translates the spec's fault knobs into the policy both media
// share (nil when none is set; cl.SetFaults validates the ranges).
func faultPolicy(s registry.Spec) (*atm.Faults, error) {
	if !s.HasFaults() {
		return nil, nil
	}
	parts, err := atm.ParsePartitions(s.Partition)
	if err != nil {
		return nil, fmt.Errorf("cluster: %v", err)
	}
	seed := s.FaultSeed
	if seed == 0 {
		seed = s.Seed
	}
	return &atm.Faults{
		Seed:       seed,
		Loss:       s.LossRate,
		DropEveryN: s.DropEveryN,
		Delay:      s.Delay,
		Jitter:     s.Jitter,
		Reorder:    s.Reorder,
		Duplicate:  s.Duplicate,
		Partitions: parts,
	}, nil
}
