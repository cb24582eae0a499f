package repro

import (
	"fmt"
	"slices"

	"isla/internal/core"
)

// dataSize reproduces §VIII-A ("Varying Data Size"): the answer quality is
// independent of M because the Eq.-1 sample size depends only on σ, e and β.
// The paper runs 10⁸..10¹²; we sweep scaled sizes with the same shape.
func dataSize(o Options) (*Table, error) {
	t := &Table{
		ID:      "datasize",
		Title:   "Varying data size (paper §VIII-A; truth = 100, e = 0.1)",
		Columns: []string{"M", "estimate", "abs error"},
		Notes:   "paper sweeps 1e8..1e12 rows; scaled down — Eq. 1 makes m independent of M",
	}
	for i, n := range []int{o.N / 10, o.N / 3, o.N, o.N * 3} {
		at := Options{N: n, Blocks: o.Blocks, Seed: o.Seed + uint64(i)}
		row, ests, err := islaRow(at, fmt.Sprint(n), 1, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append(row, f(abs(ests[0]-100))))
	}
	return t, nil
}

// spreadSweep adds one row per value to t: the value, ISLA's estimates on
// five seeded datasets with set applied, and their spread — the shape of
// Fig. 6's five lines.
func spreadSweep(o Options, t *Table, values []float64, set func(*core.Config, float64)) (*Table, error) {
	for _, v := range values {
		row, ests, err := islaRow(o, f2(v), 5, func(c *core.Config) { set(c, v) })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, append(row, f(slices.Max(ests)-slices.Min(ests))))
	}
	return t, nil
}

// fig6aPrecision reproduces Fig. 6(a): estimates diverge as the desired
// precision e is relaxed. Five datasets per e, like the paper's five lines.
func fig6aPrecision(o Options) (*Table, error) {
	return spreadSweep(o, &Table{
		ID:      "fig6a",
		Title:   "Varying precision e (paper Fig. 6a; truth = 100)",
		Columns: []string{"e", "run1", "run2", "run3", "run4", "run5", "spread"},
		Notes:   "spread should widen as e grows (looser precision → smaller sample)",
	}, []float64{0.05, 0.10, 0.15, 0.20}, func(c *core.Config, e float64) { c.Precision = e })
}

// fig6bConfidence reproduces Fig. 6(b): estimates contract around the truth
// as the confidence β rises.
func fig6bConfidence(o Options) (*Table, error) {
	return spreadSweep(o, &Table{
		ID:      "fig6b",
		Title:   "Varying confidence β (paper Fig. 6b; truth = 100, e = 0.1)",
		Columns: []string{"β", "run1", "run2", "run3", "run4", "run5", "spread"},
		Notes:   "spread should narrow as β grows (higher confidence → larger sample)",
	}, []float64{0.8, 0.9, 0.95, 0.98, 0.99}, func(c *core.Config, b float64) { c.Confidence = b })
}

// fig6cBlocks reproduces Fig. 6(c): the number of blocks barely affects the
// answers.
func fig6cBlocks(o Options) (*Table, error) {
	t := &Table{
		ID:      "fig6c",
		Title:   "Varying number of blocks (paper Fig. 6c; truth = 100, e = 0.1)",
		Columns: []string{"blocks", "run1", "run2", "run3", "run4", "run5"},
		Notes:   "all columns should hug 100 regardless of the block count",
	}
	for _, b := range []int{6, 10, 14, 18, 24} {
		o.Blocks = b
		row, _, err := islaRow(o, fmt.Sprint(b), 5, nil)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// fig6dBoundaries reproduces Fig. 6(d): the boundary parameter p1 sweet
// spot sits at 0.5–0.75; small p1 over-leverages, large p1 starves the
// S/L regions.
func fig6dBoundaries(o Options) (*Table, error) {
	return spreadSweep(o, &Table{
		ID:      "fig6d",
		Title:   "Varying data boundary p1 (paper Fig. 6d; truth = 100, p2 = 2)",
		Columns: []string{"p1", "run1", "run2", "run3", "run4", "run5", "spread"},
		Notes:   "spread should be smallest around p1 = 0.5–0.75 and diverge by 1.25–1.5",
	}, []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5}, func(c *core.Config, p1 float64) { c.P1 = p1 })
}
