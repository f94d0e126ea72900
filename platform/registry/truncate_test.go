package registry_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/mpi"
	"repro/platform/registry"
)

// A receive whose buffer is shorter than the message is MPI_ERR_TRUNCATE
// (MPI-1 §3.2.5) on every backend, eager or rendezvous: the same class and
// message, and a status counting the bytes that fit. meiko/mpich once
// returned nil here, its tport request keeping only the bytes landed.
func TestTruncateIsTypedOnEveryBackend(t *testing.T) {
	const size = 16
	for _, name := range registry.Names() {
		for _, n := range []int{100, 4096, 1 << 20} {
			s := registry.SpecFor(name)
			s.Ranks = 2
			var st mpi.Status
			var got error
			_, err := registry.Run(s, func(c *mpi.Comm) error {
				if c.Rank() == 0 {
					return c.Send(1, 0, make([]byte, n))
				}
				st, got = c.Recv(0, 0, make([]byte, size))
				return nil
			})
			if err != nil {
				t.Fatalf("%s, %d bytes: %v", name, n, err)
			}
			var ce *core.Error
			if !errors.As(got, &ce) || ce.Code != core.ErrTruncate || ce.Msg != core.Truncated(n, size).Msg || st.Count != size {
				t.Errorf("%s, %d bytes into %d: returned %v with count %d, want %v with count %d",
					name, n, size, got, st.Count, core.Truncated(n, size), size)
			}
		}
	}
}
