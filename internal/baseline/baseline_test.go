package baseline

import (
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/leverage"
	"isla/internal/stats"
)

// over is OnStore at the default configuration, m draws from seed.
func over(reduce Reducer, s *block.Store, m int64, seed uint64) (Estimate, error) {
	return OnStore(reduce, s, core.DefaultConfig(), m, stats.NewRNG(seed))
}

// value is over's estimate alone.
func value(t *testing.T, reduce Reducer, s *block.Store, m int64, seed uint64) float64 {
	t.Helper()
	est, err := over(reduce, s, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return est.Value
}

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
	est, err := over(Uniform, s, 50000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-truth) > 0.5 || est.Samples != 50000 {
		t.Fatalf("US = %v ± %v from %d draws, truth %v", est.Value, est.CI.HalfWidth, est.Samples, truth)
	}
}

// reducerErrors: a sample size below one and an empty store refuse.
func reducerErrors(t *testing.T, reduce Reducer) {
	s := normalStore(100, 20, 1000, 2, 1)
	for _, m := range []int64{0, -1} {
		if _, err := over(reduce, s, m, 1); err == nil {
			t.Errorf("sample size %d accepted", m)
		}
	}
	if _, err := over(reduce, block.NewStore(), 10, 1); !errors.Is(err, core.ErrEmptyStore) {
		t.Errorf("empty store: %v", err)
	}
}

func TestUniformErrors(t *testing.T) { reducerErrors(t, Uniform) }

// countingBlock counts the values drawn from its block.
type countingBlock struct {
	block.Block
	drawn *atomic.Int64
}

func (c countingBlock) SampleInto(r *stats.RNG, dst []float64) error {
	c.drawn.Add(int64(len(dst)))
	return c.Block.SampleInto(r, dst)
}

// TestReducersDegrade: a down block holds none of the rows US, STS and MV
// draw from. They refuse it with a *core.QuarantinedError, or under
// AllowPartial answer from the others with the Partial accounting: every
// draw made, and none of them from the down block.
func TestReducersDegrade(t *testing.T) {
	drawn := make([]atomic.Int64, 4)
	var blocks []block.Block
	for i, b := range normalStore(100, 20, 4000, 4, 1).Blocks() {
		blocks = append(blocks, countingBlock{b, &drawn[i]})
	}
	s := block.NewStore(blocks...)
	s.Quarantine(0)
	partial := core.DefaultConfig()
	partial.AllowPartial = true
	for name, reduce := range map[string]Reducer{"US": Uniform, "STS": Stratified, "MV": MeasureBiased} {
		var qe *core.QuarantinedError
		if _, err := over(reduce, s, 400, 1); !errors.As(err, &qe) {
			t.Errorf("%s: %v, want a *core.QuarantinedError", name, err)
		}
		for i := range drawn {
			drawn[i].Store(0)
		}
		est, err := OnStore(reduce, s, partial, 400, stats.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p := est.Partial; p == nil || !slices.Equal(p.MissingBlocks, []int{0}) || p.CoveredRows != 3000 || est.Samples != 400 {
			t.Errorf("%s: partial %+v from %d draws", name, est.Partial, est.Samples)
		}
		if got := drawn[0].Load(); got != 0 {
			t.Errorf("%s: drew %d values from the down block", name, got)
		}
		if got := drawn[1].Load() + drawn[2].Load() + drawn[3].Load(); got != est.Samples {
			t.Errorf("%s: answered %d samples, drew %d", name, est.Samples, got)
		}
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
		_, blens := s.Layout()
		for seed := uint64(1); seed <= seeds; seed++ {
			counts := multinomial(blens, m, stats.NewRNG(seed))
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
	})
	t.Run("equal blocks differ from STS", func(t *testing.T) {
		// Proportional quotas on equal blocks draw the same rows as STS,
		// so the two means could differ only by rounding.
		s := normalStore(100, 20, 4000, 4, 1)
		for seed := uint64(1); seed <= 20; seed++ {
			us, sts := value(t, Uniform, s, 400, seed), value(t, Stratified, s, 400, seed)
			if math.Abs(us-sts) > 1e-9*math.Abs(sts) {
				return
			}
		}
		t.Error("US and STS gave the same draws at every seed on equal blocks")
	})
	t.Run("lower bound is the binary search's", func(t *testing.T) {
		// The same row numbers off the same seed, counted by
		// slices.BinarySearch over the cumulative lengths: empty blocks,
		// one block and every count up to 17 blocks, so every depth of
		// the search and both of its ties.
		r := stats.NewRNG(5)
		for k := 1; k <= 17; k++ {
			for trial := 0; trial < 20; trial++ {
				lens := make([]int64, k)
				var n int64
				ends := make([]int64, k)
				for i := range lens {
					if r.Intn(3) > 0 {
						lens[i] = int64(1 + r.Intn(50))
					}
					n += lens[i]
					ends[i] = n
				}
				if n == 0 {
					continue
				}
				seed := r.Uint64()
				want, rows := make([]int64, k), stats.NewRNG(seed)
				for range 300 {
					i, _ := slices.BinarySearch(ends, rows.Int63n(n)+1)
					want[i]++
				}
				if got := multinomial(lens, 300, stats.NewRNG(seed)); !slices.Equal(got, want) {
					t.Fatalf("lens %v: counts %v, binary search %v", lens, got, want)
				}
			}
		}
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
	est, err := over(Stratified, s, 20000, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Within the strata σ is 5, so the stratified interval is about ±0.05;
	// a plain-mean one, over the pooled σ near 50, would be ten times that.
	if math.Abs(est.Value-truth) > 0.5 || est.CI.HalfWidth > 0.1 {
		t.Fatalf("STS = %v ± %v, truth %v", est.Value, est.CI.HalfWidth, truth)
	}
}

func TestStratifiedErrors(t *testing.T) { reducerErrors(t, Stratified) }

// TestStratifiedQuotas: proportional quotas, every non-empty stratum at
// least two draws, and Samples the draws made — above m when a small
// stratum's quota is raised, below none.
func TestStratifiedQuotas(t *testing.T) {
	blocks := []block.Block{block.NewMemBlock(0, make([]float64, 10)), block.NewMemBlock(1, nil), block.NewMemBlock(2, make([]float64, 9990))}
	est, err := over(Stratified, block.NewStore(blocks...), 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples != 102 { // quotas 0, 0 and 100 become 2, 0 and 100
		t.Fatalf("STS drew %d, want 102", est.Samples)
	}
}

func TestMeasureBiasedOverestimates(t *testing.T) {
	// The defining property behind Table III: MV lands near µ + σ²/µ = 104
	// for N(100, 20²).
	s := normalStore(100, 20, 400000, 10, 5)
	got := value(t, MeasureBiased, s, 100000, 6)
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
	got := value(t, MeasureBiased, s, 100000, 8)
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
	got := value(t, MeasureBiased, s, 100000, 10)
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
	mv := value(t, MeasureBiased, s, 100000, 12)
	if !(mvb > 100 && mvb < mv) {
		t.Fatalf("MVB = %v not between truth 100 and MV %v", mvb, mv)
	}
	if math.Abs(mvb-100.5) > 0.4 {
		t.Fatalf("MVB = %v, want ~100.5", mvb)
	}
}

func TestMeasureBiasedErrors(t *testing.T) {
	reducerErrors(t, MeasureBiased)
	s := normalStore(100, 20, 1000, 2, 1)
	bounds, _ := leverage.NewBoundaries(100, 20, 0.5, 2)
	if _, err := MeasureBiasedBounded(s, 0, bounds, stats.NewRNG(1)); err == nil {
		t.Error("zero sample size accepted (MVB)")
	}
	if _, err := MeasureBiasedBounded(block.NewStore(), 5, bounds, stats.NewRNG(1)); !errors.Is(err, ErrNoSamples) {
		t.Errorf("empty store: err = %v, want ErrNoSamples (MVB)", err)
	}
	s.Quarantine(0)
	s.Quarantine(1)
	if _, err := MeasureBiasedBounded(s, 5, bounds, stats.NewRNG(1)); !errors.Is(err, ErrNoSamples) {
		t.Errorf("every block quarantined: err = %v, want ErrNoSamples (MVB)", err)
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
