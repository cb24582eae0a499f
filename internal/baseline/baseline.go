// Package baseline implements the competitor estimators ISLA is evaluated
// against in the paper's Section VIII:
//
//   - US  — plain uniform sampling (the sample mean).
//   - STS — stratified sampling with blocks as strata.
//   - MV  — the measure-biased technique of sample+seek applied to AVG:
//     samples are re-weighted with probabilities proportional to their
//     values (Eq. 4), which evaluates to Σa²/Σa and overestimates by
//     σ²/µ — the ~104 rows of Table III.
//   - MVB — measure-biased probabilities combined with this paper's data
//     boundaries: region probability mass proportional to the region's
//     sample count, within-region probabilities proportional to values.
//   - SLEV — the leverage-biased sampling of Ma et al. with a fixed blend
//     degree α and Horvitz–Thompson correction; the prior art whose fixed
//     leverage effect the paper's iteration scheme replaces.
//
// US, STS and MV are reducers over one phase of a core.BlockSource, the
// phase ISLA's pipelines send, so they draw through the same storage paths
// and answer on local stores and shards alike. MVB needs per-region sums no
// phase reply carries, and the offline variants and SLEV scan every row, so
// they read a local block.Store.
package baseline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/leverage"
	"isla/internal/stats"
)

// ErrNoSamples is returned when a baseline ends up with nothing to average.
var ErrNoSamples = errors.New("baseline: no samples")

// Estimate is a comparison estimator's answer: its value, the interval its
// own draws earn (nil for a biased estimator, which has none), the draws it
// made and, over a source with down blocks, the rows it could not reach.
type Estimate struct {
	Value   float64
	CI      *stats.ConfidenceInterval
	Samples int64
	Partial *core.Partial
}

// Reducer is US, STS or MV: one phase of src at cfg, m draws off r.
type Reducer func(ctx context.Context, src core.BlockSource, cfg core.Config, m int64, r *stats.RNG) (Estimate, error)

// OnStore runs reduce over s's own source at cfg, as a local table's METHOD
// US, STS or MV does.
func OnStore(reduce Reducer, s *block.Store, cfg core.Config, m int64, r *stats.RNG) (Estimate, error) {
	return reduce(context.Background(), core.LocalExecutor{S: s}.Source(cfg), cfg, m, r)
}

// Uniform is the US baseline: a simple random sample of m rows, with
// replacement, from the source's rows outside its down blocks, and its mean
// with the plain-mean interval.
func Uniform(ctx context.Context, src core.BlockSource, cfg core.Config, m int64, r *stats.RNG) (Estimate, error) {
	ms, part, err := core.DrawPhase(ctx, src, cfg, m, r, multinomial)
	if err != nil {
		return Estimate{}, err
	}
	var pooled stats.Moments
	for _, x := range ms {
		pooled.Merge(x)
	}
	ci, err := stats.MeanCI(pooled.Mean(), pooled.SampleStdDev(), pooled.Count(), cfg.Confidence)
	return Estimate{Value: ci.Center, CI: &ci, Samples: pooled.Count(), Partial: part}, err
}

// multinomial is US's allocation: how many rows each block gives is itself
// random — Multinomial(m, |B_i|/N), drawn off r as m row numbers uniform in
// [0, N) and counted to the blocks holding them. Fixed proportional quotas
// would make it STS's proportional allocation instead.
func multinomial(lens []int64, m int64, r *stats.RNG) []int64 {
	ends := make([]int64, len(lens)) // ends[i]: the rows of blocks 0..i
	var n int64
	for i, l := range lens {
		n += l
		ends[i] = n
	}
	counts := make([]int64, len(lens))
	for ; m > 0; m-- {
		i, _ := slices.BinarySearch(ends, r.Int63n(n)+1) // the first block ending past the row
		counts[i]++
	}
	return counts
}

// Stratified is the STS baseline: blocks are strata, each sampled with a
// quota proportional to its size (block.QuotasFor) but at least two, so
// that every stratum has a variance; the estimate is the size-weighted mean
// of the stratum means, and its interval Cochran's stratified variance
// Σ w_i²·s_i²/n_i (Sampling Techniques, ch. 5), w_i = |B_i|/N over the
// blocks that are up.
func Stratified(ctx context.Context, src core.BlockSource, cfg core.Config, m int64, r *stats.RNG) (Estimate, error) {
	ms, part, err := core.DrawPhase(ctx, src, cfg, m, r, func(lens []int64, m int64, _ *stats.RNG) []int64 {
		quotas := block.QuotasFor(lens, m)
		for i, l := range lens {
			if l > 0 {
				quotas[i] = max(quotas[i], 2)
			}
		}
		return quotas
	})
	if err != nil {
		return Estimate{}, err
	}
	_, lens := src.Layout()
	var covered, sum, variance float64
	var n int64
	for i, x := range ms {
		if c := x.Count(); c > 0 { // every stratum that is up
			l := float64(lens[i])
			covered += l
			sum += float64(l * x.Mean())
			variance += float64(float64(l*l)*x.SampleVariance()) / float64(c)
			n += c
		}
	}
	// The standard error is already the mean's: MeanCI's m is 1.
	ci, err := stats.MeanCI(sum/covered, math.Sqrt(variance)/covered, 1, cfg.Confidence)
	return Estimate{Value: ci.Center, CI: &ci, Samples: n, Partial: part}, err
}

// MeasureBiased is the MV baseline: US's sample re-weighted with the
// measure-biased probabilities Pr(a) ∝ a of sample+seek's Eq. (4). The
// aggregate Σ prob·a over the sample reduces to Σa²/Σa, i.e. E[X²]/E[X] —
// systematically high by σ²/µ, which is exactly the deviation the paper's
// comparison tables exhibit — pooled from each block's moments as
// Σ(M2_i + n_i·x̄_i²) / Σ n_i·x̄_i. A biased estimator, it has no interval.
func MeasureBiased(ctx context.Context, src core.BlockSource, cfg core.Config, m int64, r *stats.RNG) (Estimate, error) {
	ms, part, err := core.DrawPhase(ctx, src, cfg, m, r, multinomial)
	if err != nil {
		return Estimate{}, err
	}
	var sum, sum2 float64
	var n int64
	for _, x := range ms {
		c, mean := float64(x.Count()), x.Mean()
		sum += float64(c * mean)
		sum2 += x.M2() + float64(c*float64(mean*mean))
		n += x.Count()
	}
	if sum == 0 {
		return Estimate{}, ErrNoSamples
	}
	return Estimate{Value: sum2 / sum, Samples: n, Partial: part}, nil
}

// MeasureBiasedBounded is the MVB baseline: the measure-biased weighting
// applied within the five boundary regions, with each region's probability
// mass proportional to its sample count (the second probability variant of
// §VIII-C). Region r with n_r samples contributes (n_r/m)·(Σa²_r/Σa_r). A
// biased estimator, it has no interval.
func MeasureBiasedBounded(s *block.Store, m int64, bounds leverage.Boundaries, r *stats.RNG) (float64, error) {
	if m <= 0 {
		return 0, fmt.Errorf("baseline: sample size %d must be positive", m)
	}
	// The regions are added up in region order, so a seed answers one set
	// of bits.
	var regions [leverage.TooLarge + 1]struct {
		n         int64
		sum, sum2 float64
	}
	var n int64
	err := s.PilotSampleChunks(r, m, func(vs []float64) error {
		n += int64(len(vs))
		for _, v := range vs {
			a := &regions[bounds.Classify(v)]
			a.n++
			a.sum += v
			a.sum2 += v * v
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, ErrNoSamples
	}
	est := 0.0
	for _, a := range regions {
		if a.sum == 0 {
			continue
		}
		est += float64(a.n) / float64(n) * (a.sum2 / a.sum)
	}
	return est, nil
}

// MeasureBiasedOffline is the MV baseline under sample+seek's true cost
// model: the measure-biased probabilities Pr(a) ∝ a require the global
// normalizer Σa, so the estimator performs one full scan for Σa and a
// second full scan doing Poisson draws with p_i = min(1, m·a_i/Σa); the
// estimate is the plain mean of the drawn (value-biased) sample. Its value
// distribution matches MeasureBiased — E[X²]/E[X] — but its run time
// reflects the offline preparation the paper's §VIII-F measures.
func MeasureBiasedOffline(s *block.Store, m int64, r *stats.RNG) (float64, error) {
	if m <= 0 {
		return 0, fmt.Errorf("baseline: sample size %d must be positive", m)
	}
	// The normalizer Σa is exactly what ISLB v2 footers persist: stores
	// with full summaries skip the first scan entirely.
	var total float64
	if sum, ok := s.Summary(); ok {
		total = sum.Sum
	} else if err := s.Scan(func(v float64) error { total += v; return nil }); err != nil {
		return 0, err
	}
	if total <= 0 {
		return 0, errors.New("baseline: non-positive value total")
	}
	mf := float64(m)
	var sum float64
	var picked int64
	err := s.Scan(func(v float64) error {
		p := mf * v / total
		if p > 1 {
			p = 1
		}
		if p > 0 && r.Float64() < p {
			sum += v
			picked++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if picked == 0 {
		return 0, ErrNoSamples
	}
	return sum / float64(picked), nil
}

// MeasureBiasedBoundedOffline is the MVB baseline under the offline cost
// model: pass one computes per-region totals and counts against the data
// boundaries; pass two draws a value-biased Poisson sample per region; the
// estimate weights each region's biased mean by its population share.
func MeasureBiasedBoundedOffline(s *block.Store, m int64, bounds leverage.Boundaries, r *stats.RNG) (float64, error) {
	if m <= 0 {
		return 0, fmt.Errorf("baseline: sample size %d must be positive", m)
	}
	var totals [leverage.TooLarge + 1]struct {
		n     int64
		total float64
	}
	var all int64
	err := s.Scan(func(v float64) error {
		all++
		a := &totals[bounds.Classify(v)]
		a.n++
		a.total += v
		return nil
	})
	if err != nil {
		return 0, err
	}
	if all == 0 {
		return 0, ErrNoSamples
	}
	// Draws are kept, and added up, in region order.
	var draws [leverage.TooLarge + 1]struct {
		sum    float64
		picked int64
	}
	err = s.Scan(func(v float64) error {
		reg := bounds.Classify(v)
		tt := totals[reg]
		if tt.total <= 0 {
			return nil
		}
		// Each region's quota is proportional to its population share.
		quota := float64(m) * float64(tt.n) / float64(all)
		p := quota * v / tt.total
		if p > 1 {
			p = 1
		}
		if p > 0 && r.Float64() < p {
			d := &draws[reg]
			d.sum += v
			d.picked++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	est := 0.0
	any := false
	for reg, d := range draws {
		if d.picked == 0 {
			continue
		}
		any = true
		est += float64(totals[reg].n) / float64(all) * (d.sum / float64(d.picked))
	}
	if !any {
		return 0, ErrNoSamples
	}
	return est, nil
}

// SLEVConfig configures the leverage-biased sampling baseline.
type SLEVConfig struct {
	// Alpha is the fixed blend degree between leverage and uniform
	// probabilities (Ma et al. use values like 0.9); must be in [0,1].
	Alpha float64
	// SampleSize is the expected number of Poisson draws.
	SampleSize int64
}

// SLEV implements the leverage-based sampling of Ma et al. ("A statistical
// perspective on algorithmic leveraging"): each datum is picked with
// probability blending its leverage score h_i = a_i²/Σa² with the uniform
// 1/n, and the mean is estimated with the Horvitz–Thompson correction.
// Unlike ISLA this requires touching every datum (two full scans: one for
// Σa², one for the Poisson draws) — the cost the paper's introduction
// criticizes.
func SLEV(s *block.Store, cfg SLEVConfig, r *stats.RNG) (float64, error) {
	if cfg.SampleSize <= 0 {
		return 0, fmt.Errorf("baseline: sample size %d must be positive", cfg.SampleSize)
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return 0, fmt.Errorf("baseline: alpha %v outside [0,1]", cfg.Alpha)
	}
	n := s.TotalLen()
	if n == 0 {
		return 0, ErrNoSamples
	}
	// Pass 1: Σa² for the leverage scores — persisted in ISLB v2 footers,
	// so summarized stores pay one scan instead of two.
	var sum2 float64
	if sum, ok := s.Summary(); ok {
		sum2 = sum.SumSq
	} else if err := s.Scan(func(v float64) error { sum2 += v * v; return nil }); err != nil {
		return 0, err
	}
	if sum2 == 0 {
		return 0, errors.New("baseline: zero square sum")
	}
	// Pass 2: Poisson sampling with inclusion probability p_i = min(1, m·π_i)
	// and the Horvitz–Thompson mean (1/n)·Σ a_i/p_i.
	mf := float64(cfg.SampleSize)
	nf := float64(n)
	ht := 0.0
	picked := int64(0)
	err := s.Scan(func(v float64) error {
		pi := cfg.Alpha*(v*v/sum2) + (1-cfg.Alpha)/nf
		p := mf * pi
		if p > 1 {
			p = 1
		}
		if r.Float64() < p {
			ht += v / p
			picked++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if picked == 0 {
		return 0, ErrNoSamples
	}
	return ht / nf, nil
}
