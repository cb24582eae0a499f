// Warehouse: the paper's distributed scenario (§VII-C, §VII-E). A
// transnational corporation stores sales in five regional "subsidiaries"
// with very different local distributions (non-i.i.d. blocks); the
// coordinator estimates the global average with per-block data boundaries,
// variance-aware sampling rates and parallel per-block workers.
//
//	go run ./examples/warehouse
package main

import (
	"context"
	"fmt"
	"log"

	"isla"
	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/stats"
)

func main() {
	// Five subsidiaries: different means AND different dispersions — the
	// exact configuration of the paper's §VIII-D experiment.
	regions := []struct {
		name      string
		mu, sigma float64
		rows      int
	}{
		{"americas", 100, 20, 400_000},
		{"emea", 50, 10, 400_000},
		{"apac", 80, 30, 400_000},
		{"latam", 150, 60, 400_000},
		{"anz", 120, 40, 400_000},
	}
	r := stats.NewRNG(7)
	blocks := make([]isla.Block, len(regions))
	for i, reg := range regions {
		d := stats.Normal{Mu: reg.mu, Sigma: reg.sigma}
		data := make([]float64, reg.rows)
		for j := range data {
			data[j] = d.Sample(r)
		}
		blocks[i] = block.NewMemBlock(i, data)
		fmt.Printf("subsidiary %-9s N(%3.0f, %2.0f²)  %d rows\n", reg.name, reg.mu, reg.sigma, reg.rows)
	}
	store := block.NewStore(blocks...)

	cfg := isla.DefaultConfig()
	// Data boundaries are always per subsidiary (§VII-C).
	cfg.Precision = 0.5
	cfg.VarianceAwareRates = true // dispersed subsidiaries sampled more
	cfg.Seed = 11
	// Parallel per-block execution (§VII-E), one worker per CPU — the same
	// answer as sequential for a seed.
	cfg.Workers = -1

	// isla.Estimate's pipeline spelled out, so the calculation phase can
	// hand back each subsidiary's partial answer: the answer itself keeps
	// none of them.
	ctx := context.Background()
	src := core.LocalExecutor{S: store}.Source(cfg)
	fp, err := core.FreezePilot(ctx, src, cfg)
	if err != nil {
		log.Fatal(err)
	}
	partials := make([]core.BlockResult, store.NumBlocks())
	res, err := core.EstimateFrozen(ctx, src, cfg, fp, partials)
	if err != nil {
		log.Fatal(err)
	}
	exact, err := store.ExactMean()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nglobal approximate AVG: %.4f (±%.2f)\n", res.Estimate, res.CI.HalfWidth)
	fmt.Printf("global exact AVG:       %.4f\n", exact)
	fmt.Printf("total samples:          %d of %d rows\n\n", res.TotalSamples, store.TotalLen())

	fmt.Println("per-subsidiary partial answers (variance-aware sample quotas):")
	for i, br := range partials {
		fmt.Printf("  %-9s partial=%8.4f  samples=%6d  case=%v\n",
			regions[i].name, br.Answer, br.Samples, br.Detail.Case)
	}
}
