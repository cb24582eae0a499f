// Onlinerefine: the paper's online-aggregation mode (§VII-A). The first
// answer returns quickly at loose precision; each refinement round draws
// more samples into the stored paramS/paramL power sums — no sample is ever
// kept — and the confidence interval tightens until the analyst is
// satisfied.
//
//	go run ./examples/onlinerefine
package main

import (
	"fmt"
	"log"

	"isla"
	"isla/internal/stats"
)

func main() {
	// Two million order amounts ~ N(100, 20²) across 10 blocks.
	r := stats.NewRNG(3)
	d := stats.Normal{Mu: 100, Sigma: 20}
	values := make([]float64, 2_000_000)
	for i := range values {
		values[i] = d.Sample(r)
	}
	store := isla.Partition(values, 10)
	exact, err := store.ExactMean()
	if err != nil {
		log.Fatal(err)
	}

	cfg := isla.DefaultConfig()
	cfg.Precision = 2.0 // loose first answer, refined below
	cfg.Seed = 19
	sess, err := isla.NewSession(store, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("exact mean: %.4f\n\n", exact)
	fmt.Println("round  estimate   ±precision  samples   abs err")
	for round := 1; round <= 6; round++ {
		snap, err := sess.Refine(1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d  %9.4f  %9.4f  %7d  %8.4f\n",
			snap.Round, snap.Result.Estimate, snap.Result.CI.HalfWidth,
			sess.TotalSamples(), abs(snap.Result.Estimate-exact))
	}
	fmt.Println("\nthe interval tightens as 1/√samples while the state per block")
	fmt.Println("stays four numbers (count, Σa, Σa², Σa³) per region; every round")
	fmt.Println("resumes from the stored sums instead of re-reading old samples.")
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
