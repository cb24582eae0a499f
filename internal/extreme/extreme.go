// Package extreme implements the paper's extreme-value extension (§VII-D):
// approximate MAX and MIN aggregation with leverage-based per-block
// sampling rates. Two block signals shape the rates: the local variance
// (blocks with more dispersion hide their extremes deeper, so they are
// sampled more) and the block's general level (for MAX, blocks whose values
// run higher are more likely to contain the global maximum, so they get
// larger leverages — and vice versa for MIN). Each block reports only its
// sampled extreme; the coordinator keeps the best.
package extreme

import (
	"context"
	"errors"
	"fmt"
	"math"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/stats"
)

// Kind selects the aggregate.
type Kind int

// MAX and MIN aggregation kinds.
const (
	Max Kind = iota
	Min
)

// String returns the SQL spelling.
func (k Kind) String() string {
	if k == Max {
		return "MAX"
	}
	return "MIN"
}

// The estimator's fixed shape: levelWeight blends the two leverage signals
// equally (0 would be variance only, 1 level only), and pilotPerBlock is the
// pilot sample size per block that estimates each block's mean and σ.
const (
	levelWeight   = 0.5
	pilotPerBlock = 200
)

// Config tunes the extreme-value estimator.
type Config struct {
	// SampleRate is the overall fraction of data to examine (0, 1].
	SampleRate float64
	// Seed makes runs deterministic.
	Seed uint64
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	if !(c.SampleRate > 0 && c.SampleRate <= 1) {
		return fmt.Errorf("extreme: sample rate %v outside (0,1]", c.SampleRate)
	}
	return nil
}

// BlockReport is the single value a block sends back — the recorded
// information of §VII-D ("only the extreme value is recorded in each
// block") plus its sample count for diagnostics.
type BlockReport struct {
	BlockID int
	Extreme float64
	Samples int64
}

// Result is the estimated extreme.
type Result struct {
	Value    float64
	Kind     Kind
	PerBlock []BlockReport
	Samples  int64
}

// Estimate approximates MAX or MIN over the store in two phases of moments
// draws (core.DrawPhase), each block with draws taking one seed off the
// master stream, in block order: a pilot of pilotPerBlock draws per block,
// then the budget spread by leverage. A store with quarantined blocks is
// refused with a *core.QuarantinedError: the extreme may live in exactly the
// block that cannot be read.
func Estimate(s *block.Store, kind Kind, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if s.TotalLen() == 0 {
		return Result{}, errors.New("extreme: empty store")
	}
	ctx, src, r := context.TODO(), core.LocalExecutor{S: s}.Source(core.Config{}), stats.NewRNG(cfg.Seed)
	ids, lens := src.Layout()
	phase := func(counts []int64) ([]stats.Moments, error) {
		var m int64
		for _, c := range counts {
			m += c
		}
		ms, _, err := core.DrawPhase(ctx, src, core.Config{}, m, r, func([]int64, int64, *stats.RNG) []int64 { return counts })
		return ms, err
	}

	// Pilot: per-block level (mean) and dispersion (σ).
	counts := make([]int64, len(lens))
	for i, l := range lens {
		counts[i] = min(l, pilotPerBlock)
	}
	pilots, err := phase(counts)
	if err != nil {
		return Result{}, fmt.Errorf("extreme: pilot: %w", err)
	}

	// Leverage per block: normalized variance component blended with a
	// normalized level component. For MIN the level signal is inverted —
	// generally lower blocks are more likely to hold the minimum.
	levs := make([]float64, len(lens))
	var sumVar, minMean, maxMean float64
	minMean, maxMean = math.Inf(1), math.Inf(-1)
	for i := range pilots {
		p := &pilots[i]
		sumVar += p.SampleVariance()
		if p.Count() == 0 {
			continue
		}
		minMean = math.Min(minMean, p.Mean())
		maxMean = math.Max(maxMean, p.Mean())
	}
	bN := float64(len(lens))
	var sumLev float64
	for i := range pilots {
		p := &pilots[i]
		if p.Count() == 0 {
			continue
		}
		varLev := (1 + p.SampleVariance()) / (bN + sumVar) // §VII-C form, never 0
		level := 0.5
		if span := maxMean - minMean; span > 0 {
			level = (p.Mean() - minMean) / span
			if kind == Min {
				level = 1 - level
			}
		}
		// Blend; keep a floor so no block is starved (the true extreme can
		// hide anywhere).
		levs[i] = (1-levelWeight)*varLev + levelWeight*(0.1+level)
		sumLev += levs[i]
	}
	if sumLev == 0 {
		return Result{}, errors.New("extreme: degenerate leverages")
	}

	// Distribute the global sample budget by leverage and record only each
	// block's sampled extreme.
	budget := float64(s.TotalLen()) * cfg.SampleRate
	counts = make([]int64, len(lens))
	for i, l := range lens {
		if levs[i] > 0 {
			counts[i] = min(max(int64(budget*levs[i]/sumLev), 1), l)
		}
	}
	draws, err := phase(counts)
	if err != nil {
		return Result{}, fmt.Errorf("extreme: sample: %w", err)
	}
	res := Result{Kind: kind, Value: math.Inf(-1)}
	if kind == Min {
		res.Value = math.Inf(1)
	}
	for i := range draws {
		m := &draws[i]
		if counts[i] == 0 {
			continue
		}
		ext := m.Max()
		if kind == Min {
			ext = m.Min()
		}
		res.PerBlock = append(res.PerBlock, BlockReport{BlockID: ids[i], Extreme: ext, Samples: counts[i]})
		res.Samples += counts[i]
		if (kind == Max && ext > res.Value) || (kind == Min && ext < res.Value) {
			res.Value = ext
		}
	}
	return res, nil
}

// Exact computes the true extreme with a full scan, for evaluation. A scan
// that fails — a quarantined or corrupt block — returns 0 with the error,
// never the extreme of the blocks read before it.
func Exact(s *block.Store, kind Kind) (float64, error) {
	if s.TotalLen() == 0 {
		return 0, errors.New("extreme: empty store")
	}
	best := math.Inf(-1)
	if kind == Min {
		best = math.Inf(1)
	}
	err := s.Scan(func(v float64) error {
		if kind == Max && v > best {
			best = v
		}
		if kind == Min && v < best {
			best = v
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return best, nil
}
