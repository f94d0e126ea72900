//go:build plainkernel

package core

// The plain kernel for a whole build: a rank parked in Wait wakes and polls
// itself on every wire (parkPoll), so no wait relay runs in its place.
func init() { plainKernel = true }
