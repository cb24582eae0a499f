package core

import (
	"context"
	"math"
	"testing"

	"isla/internal/block"
	"isla/internal/modulate"
	"isla/internal/stats"
)

// genStore builds a b-block store of n values drawn from d with seed.
func genStore(d stats.Dist, n int, b int, seed uint64) *block.Store {
	r := stats.NewRNG(seed)
	data := make([]float64, n)
	for i := range data {
		data[i] = d.Sample(r)
	}
	return block.Partition(data, b)
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Precision = 0 },
		func(c *Config) { c.Confidence = 1 },
		func(c *Config) { c.P1 = 0 },
		func(c *Config) { c.P2 = 0.2 },
		func(c *Config) { c.Lambda = 1 },
		func(c *Config) { c.Eta = 0 },
		func(c *Config) { c.Threshold = -1 },
		func(c *Config) { c.RelaxFactor = 1 },
		func(c *Config) { c.SampleFraction = 0 },
		func(c *Config) { c.SampleFraction = 2 },
		func(c *Config) { c.MaxSampleRate = 0 },
		func(c *Config) { c.BalanceBand = 0 },
		func(c *Config) { c.PilotSize = -1 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	c := DefaultConfig()
	c.Precision = -1
	s := genStore(stats.Normal{Mu: 100, Sigma: 20}, 1000, 2, 1)
	if _, err := Estimate(context.Background(), s, c); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestPreEstimateBasics(t *testing.T) {
	s := genStore(stats.Normal{Mu: 100, Sigma: 20}, 200000, 10, 7)
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	p, err := PreEstimate(s, cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Sketch0-100) > cfg.RelaxFactor*cfg.Precision {
		t.Errorf("sketch0 = %v outside relaxed interval around 100", p.Sketch0)
	}
	if math.Abs(p.Sigma-20) > 2 {
		t.Errorf("sigma = %v, want ~20", p.Sigma)
	}
	if p.SampleRate <= 0 || p.SampleRate > 1 {
		t.Errorf("rate = %v", p.SampleRate)
	}
	wantM, _ := stats.RequiredSampleSize(p.Sigma, cfg.Precision, cfg.Confidence)
	if math.Abs(float64(p.SampleSize-wantM)) > 1 {
		t.Errorf("sample size = %d, want ~%d", p.SampleSize, wantM)
	}
}

func TestPreEstimateEmptyStore(t *testing.T) {
	if _, err := PreEstimate(block.NewStore(), DefaultConfig(), stats.NewRNG(1)); err != ErrEmptyStore {
		t.Fatalf("err = %v, want ErrEmptyStore", err)
	}
}

func TestPreEstimateSampleFraction(t *testing.T) {
	s := genStore(stats.Normal{Mu: 100, Sigma: 20}, 100000, 5, 7)
	full := DefaultConfig()
	full.Precision = 0.5
	third := full
	third.SampleFraction = 1.0 / 3
	pf, err := PreEstimate(s, full, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := PreEstimate(s, third, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(pt.SampleSize) / float64(pf.SampleSize)
	if math.Abs(ratio-1.0/3) > 0.01 {
		t.Fatalf("fractional sample ratio = %v, want ~1/3", ratio)
	}
}

func TestEstimateNormalWithinPrecision(t *testing.T) {
	// The headline behaviour: N(100, 20²), M=5e5, b=10, e=0.5 — the answer
	// must land within the desired precision of the true mean.
	s := genStore(stats.Normal{Mu: 100, Sigma: 20}, 500000, 10, 11)
	truth, err := s.ExactMean()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	res, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-truth) > cfg.Precision {
		t.Fatalf("estimate %v deviates from truth %v by more than e=%v",
			res.Estimate, truth, cfg.Precision)
	}
	if res.Sum != res.Estimate*float64(s.TotalLen()) {
		t.Fatal("SUM not consistent with AVG")
	}
	if len(res.PerBlock) != 10 {
		t.Fatalf("per-block results = %d, want 10", len(res.PerBlock))
	}
	if res.TotalSamples <= 0 {
		t.Fatal("no samples drawn")
	}
	if !res.CI.Contains(res.Estimate) {
		t.Fatal("CI does not contain its own center")
	}
}

func TestEstimateThirdSampleStillAccurate(t *testing.T) {
	// Table V setup: ISLA at r/3 should still usually satisfy e=0.5.
	// A single draw is a coin flip against the 95% guarantee, so this is a
	// statistical assertion: across seeds, the large majority must land
	// within e and the average error must be well inside it.
	s := genStore(stats.Normal{Mu: 100, Sigma: 20}, 500000, 10, 13)
	truth, _ := s.ExactMean()
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	cfg.SampleFraction = 1.0 / 3
	const trials = 12
	within := 0
	var errAcc stats.Moments
	for seed := uint64(1); seed <= trials; seed++ {
		cfg.Seed = seed
		res, err := Estimate(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := res.Estimate - truth
		errAcc.Add(e)
		if math.Abs(e) <= cfg.Precision {
			within++
		}
	}
	// ISLA discards the N-region samples, so at r/3 its Fisher information
	// on clean normal data is ~24% of full-rate US; a ~2/3 hit rate on the
	// e-band is the honest expectation (EXPERIMENTS.md quantifies this
	// against the paper's 5/5 anecdote).
	if within < trials/2+1 {
		t.Fatalf("only %d/%d third-sample runs within e", within, trials)
	}
	if math.Abs(errAcc.Mean()) > cfg.Precision/2 {
		t.Fatalf("mean error %v suggests bias", errAcc.Mean())
	}
}

func TestEstimateSeedsVaryAnswerSlightly(t *testing.T) {
	s := genStore(stats.Normal{Mu: 100, Sigma: 20}, 300000, 10, 17)
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 1
	r1, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	r2, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Estimate == r2.Estimate {
		t.Fatal("different seeds produced bitwise-identical estimates")
	}
	cfg.Seed = 1
	r3, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Estimate != r3.Estimate {
		t.Fatal("same seed not reproducible")
	}
}

func TestEstimateNegativeDataShift(t *testing.T) {
	// All-negative data exercises the translation trick; the answer must
	// come back in the original coordinates.
	d := stats.Shifted{Base: stats.Normal{Mu: 0, Sigma: 5}, Offset: -200}
	s := genStore(d, 200000, 8, 19)
	truth, _ := s.ExactMean()
	cfg := DefaultConfig()
	cfg.Precision = 0.2
	res, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shift <= 0 {
		t.Fatalf("expected a positive shift, got %v", res.Shift)
	}
	if math.Abs(res.Estimate-truth) > cfg.Precision {
		t.Fatalf("estimate %v vs truth %v beyond e", res.Estimate, truth)
	}
}

func TestEstimateFixedAlphaAblation(t *testing.T) {
	s := genStore(stats.Normal{Mu: 100, Sigma: 20}, 300000, 10, 23)
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	alpha := 0.5
	cfg.FixedAlpha = &alpha
	res, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With a large fixed α the iteration is bypassed entirely.
	for _, br := range res.PerBlock {
		if br.Detail.Iterations != 0 {
			t.Fatalf("fixed-alpha run iterated (block %d)", br.BlockID)
		}
		if br.Detail.Alpha != alpha && br.Detail.Case != modulate.Case5 {
			t.Fatalf("block %d alpha = %v, want %v", br.BlockID, br.Detail.Alpha, alpha)
		}
	}
	if math.IsNaN(res.Estimate) {
		t.Fatal("NaN estimate")
	}
}

func TestEstimateNonIID(t *testing.T) {
	// Paper §VIII-D: five blocks with different normals; true mean 100.
	specs := []stats.Normal{
		{Mu: 100, Sigma: 20}, {Mu: 50, Sigma: 10}, {Mu: 80, Sigma: 30},
		{Mu: 150, Sigma: 60}, {Mu: 120, Sigma: 40},
	}
	const perBlock = 100000
	r := stats.NewRNG(29)
	blocks := make([]block.Block, len(specs))
	for i, sp := range specs {
		data := make([]float64, perBlock)
		for j := range data {
			data[j] = sp.Sample(r)
		}
		blocks[i] = block.NewMemBlock(i, data)
	}
	s := block.NewStore(blocks...)
	truth, _ := s.ExactMean()

	cfg := DefaultConfig()
	cfg.Precision = 0.5
	cfg.PerBlockBounds = true
	cfg.VarianceAwareRates = true
	res, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-truth) > cfg.Precision {
		t.Fatalf("non-iid estimate %v vs truth %v beyond e=%v", res.Estimate, truth, cfg.Precision)
	}
}

func TestEstimateNonIIDVarianceAwareRates(t *testing.T) {
	pilots := []BlockPilot{
		{Sigma: 10, Len: 1000},
		{Sigma: 60, Len: 1000},
	}
	rates := BlockRates(pilots, 0.1, 2000, 1)
	if rates[1] <= rates[0] {
		t.Fatalf("high-variance block rate %v not above low-variance %v", rates[1], rates[0])
	}
	// Zero-length block gets rate 0.
	rates = BlockRates([]BlockPilot{{Sigma: 1, Len: 0}}, 0.1, 100, 1)
	if rates[0] != 0 {
		t.Fatalf("empty block rate = %v, want 0", rates[0])
	}
	// Cap respected.
	rates = BlockRates([]BlockPilot{{Sigma: 100, Len: 1}}, 0.9, 1000000, 1)
	if rates[0] > 1 {
		t.Fatalf("rate %v exceeds cap", rates[0])
	}
}

func TestEstimateEmptyStore(t *testing.T) {
	if _, err := Estimate(context.Background(), block.NewStore(), DefaultConfig()); err != ErrEmptyStore {
		t.Fatalf("err = %v, want ErrEmptyStore", err)
	}
}

func TestEstimateExponential(t *testing.T) {
	// §VIII-E: ISLA stays close on asymmetric exponential data. The
	// shape inversion assumes symmetry, so the answer is pulled low but
	// the relaxed confidence interval of sketch0 (±t_e·e) bounds the
	// error — exactly the behaviour behind Table VI (9.53 vs 10 at
	// e=0.1, a ~5% shortfall).
	d := stats.Exponential{Gamma: 0.1} // mean 10
	s := genStore(d, 400000, 10, 31)
	truth, _ := s.ExactMean()
	cfg := DefaultConfig()
	cfg.Precision = 0.1 // paper default for Table VI
	res, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-truth) > 0.1*truth {
		t.Fatalf("exponential estimate %v vs truth %v off by >10%%", res.Estimate, truth)
	}
	// The error must not exceed the relaxed sketch interval plus pilot
	// noise — the mechanism that keeps non-normal answers anchored.
	if math.Abs(res.Estimate-truth) > cfg.RelaxFactor*cfg.Precision+3*cfg.Precision {
		t.Fatalf("error %v beyond the relaxed-sketch anchor", math.Abs(res.Estimate-truth))
	}
}

func TestEstimateUniformDistribution(t *testing.T) {
	// §VIII-E: uniform is the stress case; ISLA lands within ~1% of 100.
	s := genStore(stats.Uniform{Lo: 1, Hi: 199}, 400000, 10, 37)
	truth, _ := s.ExactMean()
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	res, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-truth) > 0.02*truth {
		t.Fatalf("uniform estimate %v vs truth %v off by >2%%", res.Estimate, truth)
	}
}

func TestRunBlockRespectsRate(t *testing.T) {
	s := genStore(stats.Normal{Mu: 100, Sigma: 20}, 100000, 4, 41)
	cfg := DefaultConfig()
	cfg.Precision = 1.0 // few samples needed
	res, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range res.PerBlock {
		wantM := int64(res.Pilot.SampleRate * float64(br.Len))
		if wantM < 1 {
			wantM = 1
		}
		if br.Samples != wantM {
			t.Fatalf("block %d drew %d samples, want %d", br.BlockID, br.Samples, wantM)
		}
	}
}
