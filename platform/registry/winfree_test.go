package registry_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/mpi"
	"repro/platform/registry"
)

// A Put that no Fence closed before Win.Free is the origin's error, the
// same class and message on every backend, native window or emulated: the
// target returns from Free with nil, and nothing panics or parks. On
// cluster/shm a 1 MiB Put once landed after the target had freed its
// window (a nil-pointer panic), and the other six backends returned nil.
func TestUnfencedPutIsTypedOnFree(t *testing.T) {
	want := core.Errorf(core.ErrInternal, "window freed with Puts no Fence closed (1 since the last)")
	for _, name := range registry.Names() {
		for _, n := range []int{8, 1 << 20} {
			s := registry.SpecFor(name)
			s.Ranks = 2
			var got [2]error
			_, err := registry.Run(s, func(c *mpi.Comm) error {
				win, err := c.WinCreate(n)
				if err != nil {
					return err
				}
				if err := win.Fence(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					if err := win.Put(1, 0, make([]byte, n)); err != nil {
						return err
					}
				}
				got[c.Rank()] = win.Free()
				return nil
			})
			if err != nil {
				t.Fatalf("%s, %d bytes: %v", name, n, err)
			}
			var ce *core.Error
			if !errors.As(got[0], &ce) || *ce != *want || got[1] != nil {
				t.Errorf("%s, %d bytes: Free returned %v at the origin and %v at the target, want %v and nil",
					name, n, got[0], got[1], want)
			}
		}
	}
}
