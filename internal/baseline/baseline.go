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
// All baselines consume the same block.Store abstraction as ISLA so the
// efficiency comparisons exercise identical storage paths.
package baseline

import (
	"errors"
	"fmt"

	"isla/internal/block"
	"isla/internal/leverage"
	"isla/internal/stats"
)

// ErrNoSamples is returned when a baseline ends up with nothing to average.
var ErrNoSamples = errors.New("baseline: no samples")

// Uniform is the US baseline: draw m values uniformly across the store
// (proportional to block sizes) and return the sample mean.
func Uniform(s *block.Store, m int64, r *stats.RNG) (float64, error) {
	if m <= 0 {
		return 0, fmt.Errorf("baseline: sample size %d must be positive", m)
	}
	var acc stats.Moments
	if err := s.PilotSampleChunks(r, m, block.MomentsSink(&acc)); err != nil {
		return 0, err
	}
	if acc.Count() == 0 {
		return 0, ErrNoSamples
	}
	return acc.Mean(), nil
}

// Stratified is the STS baseline: blocks are strata, each sampled with a
// quota proportional to its size; the estimate is the size-weighted mean of
// the stratum means.
func Stratified(s *block.Store, m int64, r *stats.RNG) (float64, error) {
	if m <= 0 {
		return 0, fmt.Errorf("baseline: sample size %d must be positive", m)
	}
	if s.TotalLen() == 0 {
		return 0, ErrNoSamples
	}
	total := 0.0
	for _, b := range s.Blocks() {
		if b.Len() == 0 {
			continue
		}
		quota := m * b.Len() / s.TotalLen()
		if quota < 1 {
			quota = 1
		}
		var acc stats.Moments
		if err := block.SampleChunks(b, r, quota, block.MomentsSink(&acc)); err != nil {
			return 0, err
		}
		total += acc.Mean() * float64(b.Len())
	}
	return total / float64(s.TotalLen()), nil
}

// MeasureBiased is the MV baseline: a uniform sample re-weighted with the
// measure-biased probabilities Pr(a) ∝ a of sample+seek's Eq. (4). The
// aggregate Σ prob·a over the sample reduces to Σa²/Σa, i.e. E[X²]/E[X] —
// systematically high by σ²/µ, which is exactly the deviation the paper's
// comparison tables exhibit.
func MeasureBiased(s *block.Store, m int64, r *stats.RNG) (float64, error) {
	if m <= 0 {
		return 0, fmt.Errorf("baseline: sample size %d must be positive", m)
	}
	var sum, sum2 float64
	var n int64
	err := s.PilotSampleChunks(r, m, func(vs []float64) error {
		for _, v := range vs {
			sum += v
			sum2 += v * v
		}
		n += int64(len(vs))
		return nil
	})
	if err != nil {
		return 0, err
	}
	if n == 0 || sum == 0 {
		return 0, ErrNoSamples
	}
	return sum2 / sum, nil
}

// MeasureBiasedBounded is the MVB baseline: the measure-biased weighting
// applied within the five boundary regions, with each region's probability
// mass proportional to its sample count (the second probability variant of
// §VIII-C). Region r with n_r samples contributes (n_r/m)·(Σa²_r/Σa_r).
func MeasureBiasedBounded(s *block.Store, m int64, bounds leverage.Boundaries, r *stats.RNG) (float64, error) {
	if m <= 0 {
		return 0, fmt.Errorf("baseline: sample size %d must be positive", m)
	}
	type regAcc struct {
		n         int64
		sum, sum2 float64
	}
	regions := map[leverage.Region]*regAcc{}
	var n int64
	err := s.PilotSampleChunks(r, m, func(vs []float64) error {
		n += int64(len(vs))
		for _, v := range vs {
			reg := bounds.Classify(v)
			a := regions[reg]
			if a == nil {
				a = &regAcc{}
				regions[reg] = a
			}
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
	type regTotal struct {
		n     int64
		total float64
	}
	totals := map[leverage.Region]*regTotal{}
	var all int64
	err := s.Scan(func(v float64) error {
		all++
		reg := bounds.Classify(v)
		a := totals[reg]
		if a == nil {
			a = &regTotal{}
			totals[reg] = a
		}
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
	type regDraw struct {
		sum    float64
		picked int64
	}
	draws := map[leverage.Region]*regDraw{}
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
			d := draws[reg]
			if d == nil {
				d = &regDraw{}
				draws[reg] = d
			}
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
