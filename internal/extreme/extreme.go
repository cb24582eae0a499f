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

// Estimate approximates MAX or MIN over the store. A store with quarantined
// blocks is refused with a *core.QuarantinedError: the extreme may live in
// exactly the block that cannot be read.
func Estimate(s *block.Store, kind Kind, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if s.TotalLen() == 0 {
		return Result{}, errors.New("extreme: empty store")
	}
	if err := core.RefuseQuarantined(core.LocalExecutor{S: s}.Source(core.Config{})); err != nil {
		return Result{}, err
	}
	r := stats.NewRNG(cfg.Seed)

	// Pilot: per-block level (mean) and dispersion (σ).
	type pilotStat struct {
		mean, sigma float64
		n           int64
	}
	pilots := make([]pilotStat, s.NumBlocks())
	for i, b := range s.Blocks() {
		if b.Len() == 0 {
			continue
		}
		probe := int64(pilotPerBlock)
		if probe > b.Len() {
			probe = b.Len()
		}
		var m stats.Moments
		if err := block.SampleChunks(b, r, probe, block.MomentsSink(&m)); err != nil {
			return Result{}, fmt.Errorf("extreme: block %d pilot: %w", b.ID(), err)
		}
		pilots[i] = pilotStat{mean: m.Mean(), sigma: m.SampleStdDev(), n: b.Len()}
	}

	// Leverage per block: normalized variance component blended with a
	// normalized level component. For MIN the level signal is inverted —
	// generally lower blocks are more likely to hold the minimum.
	levs := make([]float64, s.NumBlocks())
	var sumVar, minMean, maxMean float64
	minMean, maxMean = math.Inf(1), math.Inf(-1)
	for _, p := range pilots {
		sumVar += p.sigma * p.sigma
		if p.n == 0 {
			continue
		}
		minMean = math.Min(minMean, p.mean)
		maxMean = math.Max(maxMean, p.mean)
	}
	bN := float64(s.NumBlocks())
	var sumLev float64
	for i, p := range pilots {
		if p.n == 0 {
			continue
		}
		varLev := (1 + p.sigma*p.sigma) / (bN + sumVar) // §VII-C form, never 0
		level := 0.5
		if span := maxMean - minMean; span > 0 {
			level = (p.mean - minMean) / span
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
	res := Result{Kind: kind}
	best := math.Inf(-1)
	if kind == Min {
		best = math.Inf(1)
	}
	for i, b := range s.Blocks() {
		if b.Len() == 0 || levs[i] == 0 {
			continue
		}
		m := int64(budget * levs[i] / sumLev)
		if m < 1 {
			m = 1
		}
		if m > b.Len() {
			m = b.Len()
		}
		ext := math.Inf(-1)
		if kind == Min {
			ext = math.Inf(1)
		}
		err := block.SampleChunks(b, r, m, func(vs []float64) error {
			for _, v := range vs {
				if kind == Max && v > ext {
					ext = v
				}
				if kind == Min && v < ext {
					ext = v
				}
			}
			return nil
		})
		if err != nil {
			return Result{}, fmt.Errorf("extreme: block %d: %w", b.ID(), err)
		}
		res.PerBlock = append(res.PerBlock, BlockReport{BlockID: b.ID(), Extreme: ext, Samples: m})
		res.Samples += m
		if kind == Max && ext > best {
			best = ext
		}
		if kind == Min && ext < best {
			best = ext
		}
	}
	res.Value = best
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
