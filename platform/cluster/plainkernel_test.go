//go:build plainkernel

package cluster

func init() { plainKernel = true }
