//go:build plainkernel

package sim

// The plain kernel for a whole build: every scheduler runs with its
// shortcuts off (noFastPath) — no run-ahead, no same-instant queue, no
// chains, no relay run in a parked proc's place — so the build is the
// oracle the default one must agree with, record for record.
func init() { plainKernel = true }
