package bench

import (
	"context"
	"fmt"

	"isla/internal/core"
	"isla/internal/workload"
)

// islaOn runs ISLA with the given precision on a fresh N(100,20²) store.
func islaOn(n, blocks int, seed uint64, mutate func(*core.Config)) (float64, error) {
	s, _, err := workload.Normal(100, 20, n, blocks, seed)
	if err != nil {
		return 0, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = seed + 1000
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := core.Estimate(context.Background(), s, cfg)
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// DataSize reproduces §VIII-A ("Varying Data Size"): the answer quality is
// independent of M because the Eq.-1 sample size depends only on σ, e and β.
// The paper runs 10⁸..10¹²; we sweep scaled sizes with the same shape.
func DataSize(o Options) (*Table, error) {
	o = o.Defaults()
	sizes := []int{o.N / 10, o.N / 3, o.N, o.N * 3}
	t := &Table{
		ID:      "datasize",
		Title:   "Varying data size (paper §VIII-A; truth = 100, e = 0.1)",
		Columns: []string{"M", "estimate", "abs error"},
		Notes:   "paper sweeps 1e8..1e12 rows; scaled down — Eq. 1 makes m independent of M",
	}
	for i, n := range sizes {
		est, err := islaOn(n, o.Blocks, o.Seed+uint64(i), nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n), f(est), f(abs(est - 100)),
		})
	}
	return t, nil
}

// Fig6aPrecision reproduces Fig. 6(a): estimates diverge as the desired
// precision e is relaxed. Five datasets per e, like the paper's five lines.
func Fig6aPrecision(o Options) (*Table, error) {
	o = o.Defaults()
	precisions := []float64{0.05, 0.10, 0.15, 0.20}
	t := &Table{
		ID:      "fig6a",
		Title:   "Varying precision e (paper Fig. 6a; truth = 100)",
		Columns: []string{"e", "run1", "run2", "run3", "run4", "run5", "spread"},
	}
	for _, e := range precisions {
		row := []string{f2(e)}
		lo, hi := 1e18, -1e18
		for run := 0; run < 5; run++ {
			est, err := islaOn(o.N, o.Blocks, o.Seed+uint64(run), func(c *core.Config) {
				c.Precision = e
			})
			if err != nil {
				return nil, err
			}
			row = append(row, f(est))
			lo, hi = min(lo, est), max(hi, est)
		}
		row = append(row, f(hi-lo))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "spread should widen as e grows (looser precision → smaller sample)"
	return t, nil
}

// Fig6bConfidence reproduces Fig. 6(b): estimates contract around the truth
// as the confidence β rises.
func Fig6bConfidence(o Options) (*Table, error) {
	o = o.Defaults()
	confidences := []float64{0.8, 0.9, 0.95, 0.98, 0.99}
	t := &Table{
		ID:      "fig6b",
		Title:   "Varying confidence β (paper Fig. 6b; truth = 100, e = 0.1)",
		Columns: []string{"β", "run1", "run2", "run3", "run4", "run5", "spread"},
	}
	for _, b := range confidences {
		row := []string{f2(b)}
		lo, hi := 1e18, -1e18
		for run := 0; run < 5; run++ {
			est, err := islaOn(o.N, o.Blocks, o.Seed+uint64(run), func(c *core.Config) {
				c.Confidence = b
			})
			if err != nil {
				return nil, err
			}
			row = append(row, f(est))
			lo, hi = min(lo, est), max(hi, est)
		}
		row = append(row, f(hi-lo))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "spread should narrow as β grows (higher confidence → larger sample)"
	return t, nil
}

// Fig6cBlocks reproduces Fig. 6(c): the number of blocks barely affects the
// answers.
func Fig6cBlocks(o Options) (*Table, error) {
	o = o.Defaults()
	blocks := []int{6, 10, 14, 18, 24}
	t := &Table{
		ID:      "fig6c",
		Title:   "Varying number of blocks (paper Fig. 6c; truth = 100, e = 0.1)",
		Columns: []string{"blocks", "run1", "run2", "run3", "run4", "run5"},
	}
	for _, b := range blocks {
		row := []string{fmt.Sprintf("%d", b)}
		for run := 0; run < 5; run++ {
			est, err := islaOn(o.N, b, o.Seed+uint64(run), nil)
			if err != nil {
				return nil, err
			}
			row = append(row, f(est))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "all columns should hug 100 regardless of the block count"
	return t, nil
}

// Fig6dBoundaries reproduces Fig. 6(d): the boundary parameter p1 sweet
// spot sits at 0.5–0.75; small p1 over-leverages, large p1 starves the
// S/L regions.
func Fig6dBoundaries(o Options) (*Table, error) {
	o = o.Defaults()
	p1s := []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5}
	t := &Table{
		ID:      "fig6d",
		Title:   "Varying data boundary p1 (paper Fig. 6d; truth = 100, p2 = 2)",
		Columns: []string{"p1", "run1", "run2", "run3", "run4", "run5", "spread"},
	}
	for _, p1 := range p1s {
		row := []string{f2(p1)}
		lo, hi := 1e18, -1e18
		for run := 0; run < 5; run++ {
			est, err := islaOn(o.N, o.Blocks, o.Seed+uint64(run), func(c *core.Config) {
				c.P1 = p1
			})
			if err != nil {
				return nil, err
			}
			row = append(row, f(est))
			lo, hi = min(lo, est), max(hi, est)
		}
		row = append(row, f(hi-lo))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "spread should be smallest around p1 = 0.5–0.75 and diverge by 1.25–1.5"
	return t, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
