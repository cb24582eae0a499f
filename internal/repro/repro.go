// Package repro reproduces the paper: one experiment per table/figure of its
// evaluation (Section VIII), each regenerating the same rows or series the
// paper reports, on synthetic data scaled to fit a laptop. The cmd/islarepro
// binary and the repository-root BenchmarkExperiments run the Experiments
// list; each table's note states the paper's values beside the measured
// ones. It measures no performance — that is ./benchmark's job, and nothing
// else's.
package repro

import (
	"context"
	"fmt"
	"strings"
	"time"

	"isla/internal/baseline"
	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/leverage"
	"isla/internal/stats"
	"isla/internal/workload"
)

// Table is a formatted experiment result.
type Table struct {
	ID      string   // experiment id, e.g. "table3" or "fig6a"
	Title   string   // human-readable title
	Columns []string // header
	Rows    [][]string
	Notes   string // caveats, e.g. scale substitutions
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (%s) ==\n", t.Title, t.ID)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Options scales the experiments. Every field must be set; N, Blocks and
// Runs must be at least 1.
type Options struct {
	// N is the dataset size for the single-dataset experiments (paper:
	// 10¹⁰). The Eq.-1 sample size depends only on σ, e and β, so accuracy
	// results do not depend on it.
	N int
	// Blocks is the block count (paper default 10).
	Blocks int
	// Seed drives all data generation and sampling.
	Seed uint64
	// Runs is the repetition count for timing experiments.
	Runs int
}

// Experiment is one table or figure of the paper's evaluation.
type Experiment struct {
	ID  string
	Run func(Options) (*Table, error)
}

// Experiments lists every experiment, in the order islarepro runs them.
var Experiments = []Experiment{
	{"datasize", dataSize},
	{"fig6a", fig6aPrecision},
	{"fig6b", fig6bConfidence},
	{"fig6c", fig6cBlocks},
	{"fig6d", fig6dBoundaries},
	{"table3", table3Accuracy},
	{"table4", table4Modulation},
	{"table5", table5Sampling},
	{"table6", table6Exponential},
	{"table7", table7Uniform},
	{"noniid", nonIID},
	{"efficiency", efficiency},
	{"salary", salary},
	{"tlc", tlc},
	{"ablation-alpha", ablationFixedAlpha},
	{"ablation-q", ablationQ},
	{"ablation-lambda", ablationLambda},
	{"ablation-eta", ablationEta},
	{"extreme", extremes},
	{"slev", slevComparison},
}

// f formats a float at 4 decimals, the paper's table style.
func f(v float64) string { return fmt.Sprintf("%.4f", v) }

// f2 formats a float at 2 decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// ms formats a duration in milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%dms", d.Milliseconds()) }

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// islaRow runs ISLA on runs seeded N(100, 20²) datasets of o.N rows in
// o.Blocks blocks: dataset i is generated from o.Seed+i and sampled from
// o.Seed+i+1000 under the default config changed by set (which may be nil).
// It returns label followed by one estimate cell per run, and the estimates.
func islaRow(o Options, label string, runs int, set func(*core.Config)) ([]string, []float64, error) {
	row := []string{label}
	ests := make([]float64, runs)
	for i := range ests {
		seed := o.Seed + uint64(i)
		s, _, err := workload.Normal(100, 20, o.N, o.Blocks, seed)
		if err != nil {
			return nil, nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Seed = seed + 1000
		if set != nil {
			set(&cfg)
		}
		res, err := core.Estimate(context.Background(), s, cfg)
		if err != nil {
			return nil, nil, err
		}
		ests[i] = res.Estimate
		row = append(row, f(res.Estimate))
	}
	return row, ests, nil
}

// versus is ISLA's answer beside the measure-biased baselines' on one store.
type versus struct {
	isla    core.Result
	mv, mvb float64
	r       *stats.RNG // the baselines' generator, for further draws
}

// islaVsMV runs ISLA on s under cfg sampled from seed+5000, then MV and MVB
// from one generator seeded seed+9000. Each baseline draws m values and MVB
// keeps the boundaries of pilot; a nil pilot stands for ISLA's own, and m
// for its Eq.-1 sample size.
func islaVsMV(s *block.Store, cfg core.Config, seed uint64, pilot *core.Pilot, m int64) (versus, error) {
	cfg.Seed = seed + 5000
	res, err := core.Estimate(context.Background(), s, cfg)
	if err != nil {
		return versus{}, err
	}
	if pilot == nil {
		pilot, m = &res.Pilot, res.Pilot.SampleSize
	}
	v := versus{isla: res, r: stats.NewRNG(seed + 9000)}
	if v.mv, err = baseline.MeasureBiased(s, m, v.r); err != nil {
		return versus{}, err
	}
	bounds, err := leverage.NewBoundaries(pilot.Sketch0, pilot.Sigma, cfg.P1, cfg.P2)
	if err != nil {
		return versus{}, err
	}
	if v.mvb, err = baseline.MeasureBiasedBounded(s, m, bounds, v.r); err != nil {
		return versus{}, err
	}
	return v, nil
}

// partials runs ISLA on the N(100, 20²) dataset generated from o.Seed,
// sampled from o.Seed+5000 under the default config changed by set (which
// may be nil), and keeps each block's partial answer: the pilot frozen over
// the store's own source, then the calculation phase resumed from it with a
// destination.
func partials(o Options, set func(*core.Config)) (core.Result, []core.BlockResult, error) {
	s, _, err := workload.Normal(100, 20, o.N, o.Blocks, o.Seed)
	if err != nil {
		return core.Result{}, nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed + 5000
	if set != nil {
		set(&cfg)
	}
	ctx := context.Background()
	src := core.LocalExecutor{S: s}.Source(cfg)
	fp, err := core.FreezePilot(ctx, src, cfg)
	if err != nil {
		return core.Result{}, nil, err
	}
	blocks := make([]core.BlockResult, s.NumBlocks())
	res, err := core.EstimateFrozen(ctx, src, cfg, fp, blocks)
	return res, blocks, err
}

// sigmaProbe is the pooled pilot FreezePilot builds on s at cfg's precision,
// from a seed of its own so it shares no draws with the runs it sizes.
func sigmaProbe(s *block.Store, cfg core.Config, seed uint64) (core.Pilot, error) {
	cfg.Seed = seed
	fp, err := core.FreezePilot(context.Background(), core.LocalExecutor{S: s}.Source(cfg), cfg)
	return fp.Base, err
}
