package cluster

import (
	"time"

	"repro/internal/core"
)

// cluster/shm carries MPI over the cluster's coherent shared-memory
// segment: every host maps one region, a message is a store burst into the
// receiver's mailbox, and the only wire is the attachment link (ShmLatency
// visibility plus ShmPerByte copy bandwidth). That is core.MemFabric's
// wire exactly, so the backend is this cost table over the fabric (see
// newWorld) and has no transport of its own: there is no kernel, no framing
// and no credit scheme — the segment itself is the reserved memory, so
// senders never block on flow control (Credits 0).
//
// From the fabric it takes the write-buffer ordering rule (deliveries to a
// destination never overtake, whatever their sizes), ShmLatency as the
// minimum delay and therefore the shard lookahead, so the same model runs
// unchanged on the sharded kernel, and native one-sided remote memory — the
// CXL-style analogue of the Meiko's remote-store hardware — so shm windows
// never fall back to the matched-send emulation.

// shmEngineCosts keeps the SGI's user-level matching charges (the CPU is
// the same 133 MHz Indy) but drops the syscall-sized send/receive
// overheads to a store-burst setup cost: no kernel sits between the MPI
// library and the segment.
func shmEngineCosts() core.EngineCosts {
	return core.EngineCosts{
		Match:        18 * time.Microsecond,
		CopyBase:     2 * time.Microsecond,
		CopyPerByte:  60 * time.Nanosecond,
		SendOverhead: 2 * time.Microsecond,
		RecvOverhead: 2 * time.Microsecond,
	}
}

// shmPollCost is the per-packet mailbox check (a cached flag read).
const shmPollCost = 500 * time.Nanosecond
