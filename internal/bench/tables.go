package bench

import (
	"context"
	"fmt"

	"isla/internal/baseline"
	"isla/internal/core"
	"isla/internal/leverage"
	"isla/internal/stats"
	"isla/internal/workload"
)

// Table3Accuracy reproduces Table III: ISLA vs MV vs MVB over 10 datasets
// at e = 0.1. Shape to reproduce: ISLA ≈ 100 (inside e), MV ≈ 104
// (inflated by σ²/µ), MVB ≈ 100.5.
func Table3Accuracy(o Options) (*Table, error) {
	o = o.Defaults()
	t := &Table{
		ID:      "table3",
		Title:   "Accuracy: ISLA vs MV vs MVB (paper Table III; truth = 100, e = 0.1)",
		Columns: []string{"dataset", "ISLA", "MV", "MVB"},
	}
	var sumI, sumMV, sumMVB float64
	const datasets = 10
	for d := 0; d < datasets; d++ {
		seed := o.Seed + uint64(d)
		s, _, err := workload.Normal(100, 20, o.N, o.Blocks, seed)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Seed = seed + 5000
		res, err := core.Estimate(context.Background(), s, cfg)
		if err != nil {
			return nil, err
		}
		r := stats.NewRNG(seed + 9000)
		m := res.Pilot.SampleSize
		mv, err := baseline.MeasureBiased(s, m, r)
		if err != nil {
			return nil, err
		}
		bounds, err := leverage.NewBoundaries(res.Pilot.Sketch0, res.Pilot.Sigma, cfg.P1, cfg.P2)
		if err != nil {
			return nil, err
		}
		mvb, err := baseline.MeasureBiasedBounded(s, m, bounds, r)
		if err != nil {
			return nil, err
		}
		sumI += res.Estimate
		sumMV += mv
		sumMVB += mvb
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d+1), f(res.Estimate), f(mv), f(mvb),
		})
	}
	t.Rows = append(t.Rows, []string{
		"average", f(sumI / datasets), f(sumMV / datasets), f(sumMVB / datasets),
	})
	t.Notes = "paper averages: ISLA 100.0296, MV 104.0036, MVB 100.515"
	return t, nil
}

// Table4Modulation reproduces Table IV: per-block partial answers of one
// dataset, showing sketch0 being modulated toward µ in every block.
func Table4Modulation(o Options) (*Table, error) {
	o = o.Defaults()
	s, _, err := workload.Normal(100, 20, o.N, o.Blocks, o.Seed)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed + 5000
	res, err := core.Estimate(context.Background(), s, cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table4",
		Title: "Modulation abilities: partial answers per block (paper Table IV; truth = 100)",
		Columns: []string{
			"block", "partial", "case", "alpha", "iterations", "q",
		},
	}
	var sum float64
	for _, br := range res.PerBlock {
		sum += br.Answer
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", br.BlockID+1),
			f(br.Answer),
			br.Detail.Case.String(),
			f(br.Detail.Alpha),
			fmt.Sprintf("%d", br.Detail.Iterations),
			f2(br.Detail.Q),
		})
	}
	t.Rows = append(t.Rows, []string{"average", f(sum / float64(len(res.PerBlock))), "", "", "", ""})
	t.Notes = fmt.Sprintf("sketch0 = %s; every partial should sit closer to 100 than sketch0 on average (paper: sketch0 99.676, partials ≈ 100.00)", f(res.Pilot.Sketch0))
	return t, nil
}

// Table5Sampling reproduces Table V: ISLA at one third of the required
// sample size against US and STS at the full size, e = 0.5, five datasets.
func Table5Sampling(o Options) (*Table, error) {
	o = o.Defaults()
	t := &Table{
		ID:      "table5",
		Title:   "ISLA (r/3) vs US and STS (r) (paper Table V; truth = 100, e = 0.5)",
		Columns: []string{"dataset", "ISLA@r/3", "US@r", "STS@r", "ISLA samples", "US samples"},
	}
	for d := 0; d < 5; d++ {
		seed := o.Seed + uint64(d)
		s, _, err := workload.Normal(100, 20, o.N, o.Blocks, seed)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Precision = 0.5
		cfg.SampleFraction = 1.0 / 3
		cfg.Seed = seed + 5000
		res, err := core.Estimate(context.Background(), s, cfg)
		if err != nil {
			return nil, err
		}
		fullM := res.Pilot.SampleSize * 3
		r := stats.NewRNG(seed + 9000)
		us, err := baseline.Uniform(s, fullM, r)
		if err != nil {
			return nil, err
		}
		sts, err := baseline.Stratified(s, fullM, r)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d+1), f(res.Estimate), f(us), f(sts),
			fmt.Sprintf("%d", res.TotalSamples), fmt.Sprintf("%d", fullM),
		})
	}
	t.Notes = "shape: ISLA with a third of the samples stays comparable to US/STS at full size"
	return t, nil
}

// Table6Exponential reproduces Table VI: exponential distributions with
// γ ∈ {0.05, 0.1, 0.15, 0.2}. Shape: ISLA close below 1/γ; MV ≈ 2/γ
// (double); MVB mildly above.
func Table6Exponential(o Options) (*Table, error) {
	o = o.Defaults()
	gammas := []float64{0.05, 0.1, 0.15, 0.2}
	t := &Table{
		ID:      "table6",
		Title:   "Exponential distributions (paper Table VI)",
		Columns: []string{"γ", "accurate", "ISLA", "MV", "MVB"},
	}
	for i, g := range gammas {
		seed := o.Seed + uint64(i)
		s, truth, err := workload.Exponential(g, o.N, o.Blocks, seed)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Seed = seed + 5000
		res, err := core.Estimate(context.Background(), s, cfg)
		if err != nil {
			return nil, err
		}
		r := stats.NewRNG(seed + 9000)
		m := res.Pilot.SampleSize
		mv, err := baseline.MeasureBiased(s, m, r)
		if err != nil {
			return nil, err
		}
		bounds, err := leverage.NewBoundaries(res.Pilot.Sketch0, res.Pilot.Sigma, cfg.P1, cfg.P2)
		if err != nil {
			return nil, err
		}
		mvb, err := baseline.MeasureBiasedBounded(s, m, bounds, r)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			f2(g), f(truth), f(res.Estimate), f(mv), f(mvb),
		})
	}
	t.Notes = "paper (γ=0.1): accurate 10, ISLA 9.53, MV 20.27, MVB 11.06"
	return t, nil
}

// Table7Uniform reproduces Table VII: U[1,199] over five datasets. Shape:
// ISLA slightly below 100; MV ≈ 132; MVB biased on the other side.
func Table7Uniform(o Options) (*Table, error) {
	o = o.Defaults()
	t := &Table{
		ID:      "table7",
		Title:   "Uniform distributions U[1,199] (paper Table VII; truth = 100)",
		Columns: []string{"dataset", "ISLA", "MV", "MVB"},
	}
	for d := 0; d < 5; d++ {
		seed := o.Seed + uint64(d)
		s, _, err := workload.UniformRange(1, 199, o.N, o.Blocks, seed)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Seed = seed + 5000
		res, err := core.Estimate(context.Background(), s, cfg)
		if err != nil {
			return nil, err
		}
		r := stats.NewRNG(seed + 9000)
		m := res.Pilot.SampleSize
		mv, err := baseline.MeasureBiased(s, m, r)
		if err != nil {
			return nil, err
		}
		bounds, err := leverage.NewBoundaries(res.Pilot.Sketch0, res.Pilot.Sigma, cfg.P1, cfg.P2)
		if err != nil {
			return nil, err
		}
		mvb, err := baseline.MeasureBiasedBounded(s, m, bounds, r)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", d+1), f(res.Estimate), f(mv), f(mvb),
		})
	}
	t.Notes = "paper: ISLA 99.5–99.85, MV ≈ 132, MVB 92.8–95.4"
	return t, nil
}

// NonIID reproduces §VIII-D: five blocks from different normals, true mean
// 100, e = 0.5, five runs.
func NonIID(o Options) (*Table, error) {
	o = o.Defaults()
	perBlock := o.N / 5
	t := &Table{
		ID:      "noniid",
		Title:   "Non-i.i.d. blocks (paper §VIII-D; truth = 100, e = 0.5)",
		Columns: []string{"run", "estimate", "abs error", "within e"},
	}
	for run := 0; run < 5; run++ {
		seed := o.Seed + uint64(run)
		s, truth, err := workload.PaperNonIID(perBlock, seed)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Precision = 0.5
		cfg.PerBlockBounds = true
		cfg.VarianceAwareRates = true
		cfg.Seed = seed + 5000
		res, err := core.Estimate(context.Background(), s, cfg)
		if err != nil {
			return nil, err
		}
		e := abs(res.Estimate - truth)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", run+1), f(res.Estimate), f(e),
			fmt.Sprintf("%t", e <= cfg.Precision),
		})
	}
	t.Notes = "paper results: 99.85–100.32, all within e"
	return t, nil
}
