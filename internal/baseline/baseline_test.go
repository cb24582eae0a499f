package baseline

import (
	"math"
	"testing"

	"isla/internal/block"
	"isla/internal/leverage"
	"isla/internal/stats"
)

func normalStore(mu, sigma float64, n, b int, seed uint64) *block.Store {
	r := stats.NewRNG(seed)
	data := make([]float64, n)
	d := stats.Normal{Mu: mu, Sigma: sigma}
	for i := range data {
		data[i] = d.Sample(r)
	}
	return block.Partition(data, b)
}

func TestUniformAccuracy(t *testing.T) {
	s := normalStore(100, 20, 200000, 10, 1)
	truth, _ := s.ExactMean()
	got, err := Uniform(s, 50000, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-truth) > 0.5 {
		t.Fatalf("US = %v, truth %v", got, truth)
	}
}

func TestUniformErrors(t *testing.T) {
	s := normalStore(100, 20, 1000, 2, 1)
	if _, err := Uniform(s, 0, stats.NewRNG(1)); err == nil {
		t.Error("zero sample size accepted")
	}
	if _, err := Uniform(block.NewStore(), 10, stats.NewRNG(1)); err == nil {
		t.Error("empty store accepted")
	}
}

// TestUniformIsASimpleRandomSample: US's per-block counts are one
// Multinomial(m, |B_i|/N) draw, not proportional quotas, so on equal blocks
// it is not STS.
func TestUniformIsASimpleRandomSample(t *testing.T) {
	t.Run("multinomial counts", func(t *testing.T) {
		lens := []int{100, 300, 600, 1000}
		var blocks []block.Block
		for i, n := range lens {
			blocks = append(blocks, block.NewMemBlock(i, make([]float64, n)))
		}
		s := block.NewStore(blocks...)
		const m, seeds = 200, 2000
		// Per seed, χ² = Σ (c_i − m·p_i)²/(m·p_i) has 3 degrees of freedom,
		// so over 2 000 seeds the sum has 6 000: mean 6 000, sd 110.
		// Proportional quotas would give a sum near 0. The pooled counts'
		// χ² (3 degrees of freedom) must stay below 16.27, p = 0.001.
		var sum float64
		pooled := make([]int64, len(lens))
		for seed := uint64(1); seed <= seeds; seed++ {
			counts, err := uniformCounts(s, m, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range counts {
				want := float64(m*lens[i]) / float64(s.TotalLen())
				sum += (float64(c) - want) * (float64(c) - want) / want
				pooled[i] += c
			}
		}
		t.Logf("Σχ² over %d seeds = %.0f", seeds, sum)
		if math.Abs(sum-3*seeds) > 5*math.Sqrt(6*seeds) {
			t.Errorf("Σχ² over %d seeds = %.0f, want %d ± %.0f", seeds, sum, 3*seeds, 5*math.Sqrt(6*seeds))
		}
		var chi2 float64
		for i, c := range pooled {
			want := float64(seeds*m*lens[i]) / float64(s.TotalLen())
			chi2 += (float64(c) - want) * (float64(c) - want) / want
		}
		t.Logf("pooled counts %v: χ² = %.2f", pooled, chi2)
		if chi2 > 16.27 {
			t.Errorf("pooled counts %v: χ² = %.2f, want below 16.27", pooled, chi2)
		}
		s.Quarantine(0)
		if counts, err := uniformCounts(s, m, stats.NewRNG(1)); err != nil || counts[0] != 0 {
			t.Errorf("quarantined block 0: counts %v, %v", counts, err)
		}
	})
	t.Run("equal blocks differ from STS", func(t *testing.T) {
		// Proportional quotas on equal blocks draw the same rows as STS,
		// so the two means could differ only by rounding.
		s := normalStore(100, 20, 4000, 4, 1)
		for seed := uint64(1); seed <= 20; seed++ {
			us, err := Uniform(s, 400, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			sts, err := Stratified(s, 400, stats.NewRNG(seed))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(us-sts) > 1e-9*math.Abs(sts) {
				return
			}
		}
		t.Error("US and STS gave the same draws at every seed on equal blocks")
	})
}

func TestStratifiedAccuracy(t *testing.T) {
	// Strata with very different means: stratification must still hit the
	// global mean because quotas are size-proportional.
	r := stats.NewRNG(3)
	mk := func(mu float64, n int) block.Block {
		d := stats.Normal{Mu: mu, Sigma: 5}
		data := make([]float64, n)
		for i := range data {
			data[i] = d.Sample(r)
		}
		return block.NewMemBlock(0, data)
	}
	s := block.NewStore(mk(50, 100000), mk(150, 100000))
	truth, _ := s.ExactMean()
	got, err := Stratified(s, 20000, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-truth) > 0.5 {
		t.Fatalf("STS = %v, truth %v", got, truth)
	}
}

func TestStratifiedErrors(t *testing.T) {
	if _, err := Stratified(block.NewStore(), 10, stats.NewRNG(1)); err == nil {
		t.Error("empty store accepted")
	}
	s := normalStore(100, 20, 1000, 2, 1)
	if _, err := Stratified(s, -1, stats.NewRNG(1)); err == nil {
		t.Error("negative sample size accepted")
	}
}

func TestMeasureBiasedOverestimates(t *testing.T) {
	// The defining property behind Table III: MV lands near µ + σ²/µ = 104
	// for N(100, 20²).
	s := normalStore(100, 20, 400000, 10, 5)
	got, err := MeasureBiased(s, 100000, stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-104) > 0.5 {
		t.Fatalf("MV = %v, want ~104", got)
	}
}

func TestMeasureBiasedUniformData(t *testing.T) {
	// Table VII: MV ≈ 132 on U[1,199].
	r := stats.NewRNG(7)
	data := make([]float64, 400000)
	u := stats.Uniform{Lo: 1, Hi: 199}
	for i := range data {
		data[i] = u.Sample(r)
	}
	s := block.Partition(data, 10)
	got, err := MeasureBiased(s, 100000, stats.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	want := (100*100 + 198*198/12.0) / 100 // E[X²]/E[X]
	if math.Abs(got-want) > 1.5 {
		t.Fatalf("MV = %v, want ~%v", got, want)
	}
}

func TestMeasureBiasedExponential(t *testing.T) {
	// Table VI: MV ≈ 2/γ on Exp(γ).
	r := stats.NewRNG(9)
	data := make([]float64, 400000)
	e := stats.Exponential{Gamma: 0.1}
	for i := range data {
		data[i] = e.Sample(r)
	}
	s := block.Partition(data, 10)
	got, err := MeasureBiased(s, 100000, stats.NewRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-20) > 1 {
		t.Fatalf("MV = %v, want ~20 (2/γ)", got)
	}
}

func TestMeasureBiasedBoundedBetweenMVAndTruth(t *testing.T) {
	// MVB splits by region, so the per-region variance inflation is small:
	// Table III reports ~100.5 for the default normal workload.
	s := normalStore(100, 20, 400000, 10, 11)
	bounds, err := leverage.NewBoundaries(100, 20, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	mvb, err := MeasureBiasedBounded(s, 100000, bounds, stats.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	mv, err := MeasureBiased(s, 100000, stats.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	if !(mvb > 100 && mvb < mv) {
		t.Fatalf("MVB = %v not between truth 100 and MV %v", mvb, mv)
	}
	if math.Abs(mvb-100.5) > 0.4 {
		t.Fatalf("MVB = %v, want ~100.5", mvb)
	}
}

func TestMeasureBiasedErrors(t *testing.T) {
	s := normalStore(100, 20, 1000, 2, 1)
	if _, err := MeasureBiased(s, 0, stats.NewRNG(1)); err == nil {
		t.Error("zero sample size accepted")
	}
	bounds, _ := leverage.NewBoundaries(100, 20, 0.5, 2)
	if _, err := MeasureBiasedBounded(s, 0, bounds, stats.NewRNG(1)); err == nil {
		t.Error("zero sample size accepted (MVB)")
	}
}

func TestSLEVUnbiasedOnNormal(t *testing.T) {
	s := normalStore(100, 20, 100000, 5, 13)
	truth, _ := s.ExactMean()
	got, err := SLEV(s, SLEVConfig{Alpha: 0.9, SampleSize: 20000}, stats.NewRNG(14))
	if err != nil {
		t.Fatal(err)
	}
	// Horvitz–Thompson is unbiased; tolerance reflects sampling noise.
	if math.Abs(got-truth) > 1.0 {
		t.Fatalf("SLEV = %v, truth %v", got, truth)
	}
}

func TestSLEVAlphaZeroIsPoissonUniform(t *testing.T) {
	s := normalStore(100, 20, 50000, 5, 15)
	truth, _ := s.ExactMean()
	got, err := SLEV(s, SLEVConfig{Alpha: 0, SampleSize: 20000}, stats.NewRNG(16))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-truth) > 1.0 {
		t.Fatalf("SLEV(α=0) = %v, truth %v", got, truth)
	}
}

func TestSLEVErrors(t *testing.T) {
	s := normalStore(100, 20, 1000, 2, 1)
	if _, err := SLEV(s, SLEVConfig{Alpha: 0.5, SampleSize: 0}, stats.NewRNG(1)); err == nil {
		t.Error("zero sample size accepted")
	}
	if _, err := SLEV(s, SLEVConfig{Alpha: 1.5, SampleSize: 10}, stats.NewRNG(1)); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := SLEV(block.NewStore(), SLEVConfig{Alpha: 0.5, SampleSize: 10}, stats.NewRNG(1)); err == nil {
		t.Error("empty store accepted")
	}
}
