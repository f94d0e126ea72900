// Montecarlo estimates pi on both platforms with an embarrassingly
// parallel sampler whose only communication is collectives — showing how a
// latency-bound job (tiny allreduces each round) behaves on the Meiko vs
// the TCP cluster, the contrast the paper's application section draws.
//
//	go run ./examples/montecarlo [-samples 200000] [-rounds 10]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"repro/mpi"
	_ "repro/platform/cluster"
	_ "repro/platform/meiko"
	"repro/platform/registry"
)

func estimator(samples, rounds int) func(c *mpi.Comm) error {
	return func(c *mpi.Comm) error {
		rng := rand.New(rand.NewSource(int64(1 + c.Rank())))
		per := samples / c.Size()
		var inside, total int64
		for round := 0; round < rounds; round++ {
			for i := 0; i < per/rounds; i++ {
				x, y := rng.Float64(), rng.Float64()
				if x*x+y*y <= 1 {
					inside++
				}
				total++
			}
			// ~100ns of modeled work per sample on the host CPU.
			c.Compute(time.Duration(per/rounds) * 100 * time.Nanosecond)
			// A tiny allreduce each round: the running global estimate.
			sums, err := c.AllreduceFloat64(mpi.SumFloat64, []float64{float64(inside), float64(total)})
			if err != nil {
				return err
			}
			if c.Rank() == 0 && round == rounds-1 {
				pi := 4 * sums[0] / sums[1]
				fmt.Printf("    pi ~= %.5f (err %.5f) after %d samples, t=%v\n",
					pi, math.Abs(pi-math.Pi), int64(sums[1]), c.Wtime())
			}
		}
		return nil
	}
}

func main() {
	samples := flag.Int("samples", 200_000, "total samples")
	rounds := flag.Int("rounds", 10, "allreduce rounds")
	flag.Parse()

	fmt.Println("Meiko CS/2, 8 ranks:")
	rep, err := registry.Run(registry.Spec{Platform: "meiko", Ranks: 8}, estimator(*samples, *rounds))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    virtual time %v\n", rep.MaxRankElapsed)

	fmt.Println("TCP/ATM cluster, 8 ranks (same work, millisecond collectives):")
	rep, err = registry.Run(registry.Spec{Platform: "cluster", Transport: "tcp", Network: "atm", Ranks: 8}, estimator(*samples, *rounds))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("    virtual time %v\n", rep.MaxRankElapsed)
}
