package main

import (
	"sync"
	"time"
)

// refRounds × refRing goroutine handoffs make one run of the reference
// kernel. refNominal is what that takes on the sandbox the benchmark was
// written on, on a quiet minute; it only fixes the scale of reference time.
const (
	refRing    = 64
	refRounds  = 4000
	refNominal = 90 * time.Millisecond
)

// refKernel is a fixed piece of work that uses the host the way the
// simulator does — goroutines handing a token round a ring over unbuffered
// channels, a small allocation and a string-keyed map update per hop — but
// shares no code with the repository, so no change to the program can make
// it faster. The time it takes right after a repetition tells how fast the
// host was at that moment. scale shrinks the work along with the workloads;
// the result is scaled back up to a full run.
func refKernel(scale float64) time.Duration {
	rounds := max(1, int(refRounds*scale))
	t0 := time.Now()
	hops := make([]chan []byte, refRing)
	for i := range hops {
		hops[i] = make(chan []byte)
	}
	done := make(chan int)
	var ring sync.WaitGroup
	for i := range hops {
		ring.Add(1)
		go func() {
			defer ring.Done()
			counts := map[string]int{}
			for tok := range hops[i] {
				next := make([]byte, len(tok))
				copy(next, tok)
				counts["hop"]++
				if i+1 < refRing {
					hops[i+1] <- next
				} else {
					done <- counts["hop"]
				}
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		hops[0] <- make([]byte, 256)
		sink = <-done
	}
	for _, ch := range hops {
		close(ch)
	}
	ring.Wait()
	return time.Since(t0) * refRounds / time.Duration(rounds)
}
