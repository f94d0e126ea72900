package meiko

import (
	"repro/mpi"
	"repro/platform/registry"
)

// The Meiko backends: the paper's low-latency implementation and the
// MPICH-over-tport baseline, registered so every entrypoint builds them
// through the registry.
func init() {
	for _, impl := range []string{"lowlatency", "mpich"} {
		registry.Register("meiko/"+impl, func(s registry.Spec) (*mpi.World, error) {
			return build(s, impl)
		})
	}
}
