package core

import (
	"errors"
	"fmt"

	"isla/internal/block"
	"isla/internal/stats"
)

// Pilot is the output of the Pre-estimation module: the sketch estimator's
// initial value, the estimated standard deviation, the derived sampling
// rate, and bookkeeping about how they were obtained.
type Pilot struct {
	Sketch0    float64 // initial sketch estimate (relaxed precision t_e·e)
	Sigma      float64 // estimated overall standard deviation
	SampleRate float64 // r = m/M from Eq. (1), scaled by SampleFraction
	SampleSize int64   // m, total samples Calculation will draw
	PilotSize  int64   // samples spent on the pilot itself
	RelaxedE   float64 // t_e · e, the relaxed precision of sketch0
	Min, Max   float64 // pilot min/max, used by the negative-data shift
}

// ErrEmptyStore is returned when an estimator is asked to run on no data.
var ErrEmptyStore = errors.New("core: empty store")

// summaryPilot builds a pilot from the store's persisted summaries (ISLB
// v2 footers): sketch0, σ and min/max are exact, PilotSize is zero and no
// RNG state is consumed. ok is false when any non-empty block lacks a
// summary — callers then run the sampled pilot instead.
func summaryPilot(s *block.Store, cfg Config) (Pilot, bool, error) {
	sum, ok := s.Summary()
	if !ok || sum.Count == 0 {
		return Pilot{}, false, nil
	}
	p, err := pilotFromSummary(sum, cfg, s.TotalLen())
	return p, err == nil, err
}

// pilotFromSummary is the pilot exact statistics buy: no samples spent.
func pilotFromSummary(sum block.Summary, cfg Config, totalLen int64) (Pilot, error) {
	return newPilot(sum.Mean(), sum.SampleStdDev(), sum.Min, sum.Max, 0, cfg, totalLen)
}

// newPilot completes pilot statistics, however obtained, with the
// calculation-phase sampling plan they imply (planSize).
func newPilot(sketch0, sigma, lo, hi float64, pilotSize int64, cfg Config, totalLen int64) (Pilot, error) {
	rate, m, err := planSize(sigma, cfg, totalLen)
	if err != nil {
		return Pilot{}, err
	}
	return Pilot{
		Sketch0:    sketch0,
		Sigma:      sigma,
		SampleRate: rate,
		SampleSize: m,
		PilotSize:  pilotSize,
		RelaxedE:   relaxFactor * cfg.Precision,
		Min:        lo,
		Max:        hi,
	}, nil
}

// PreEstimate runs the Pre-estimation module over the store: draws a pilot
// sample proportional to block sizes, estimates σ and sketch0, and derives
// the sampling rate from the desired precision (Eq. 1). With
// cfg.SummaryPilot set and every block carrying a persisted summary, the
// pilot is served from the summaries instead: exact statistics, zero
// samples drawn, zero blocks touched.
func PreEstimate(s *block.Store, cfg Config, r *stats.RNG) (Pilot, error) {
	if err := cfg.Validate(); err != nil {
		return Pilot{}, err
	}
	if s.TotalLen() == 0 {
		return Pilot{}, ErrEmptyStore
	}
	if cfg.SummaryPilot {
		if p, ok, err := summaryPilot(s, cfg); err != nil {
			return Pilot{}, err
		} else if ok {
			return p, nil
		}
	}

	// The pilot runs at the relaxed precision t_e·e so sketch0 carries the
	// relaxed confidence interval (sketch0 − t_e·e, sketch0 + t_e·e) the
	// modulation scheme depends on. The pilot size cannot be known before σ
	// is known, so it bootstraps: a small fixed probe estimates σ, then the
	// relaxed Eq. (1) determines the pilot size for sketch0.
	relaxed := relaxFactor * cfg.Precision
	probeSize := int64(1000)
	if probeSize > s.TotalLen() {
		probeSize = s.TotalLen()
	}
	var probe stats.Moments
	if err := s.PilotSampleChunks(r, probeSize, block.MomentsSink(&probe)); err != nil {
		return Pilot{}, fmt.Errorf("core: pilot probe: %w", err)
	}
	sigma := probe.SampleStdDev()

	pilotSize := cfg.PilotSize
	if pilotSize == 0 {
		var err error
		pilotSize, err = stats.RequiredSampleSize(sigma, relaxed, cfg.Confidence)
		if err != nil {
			return Pilot{}, fmt.Errorf("core: pilot size: %w", err)
		}
	}
	if pilotSize > s.TotalLen() {
		pilotSize = s.TotalLen()
	}
	if pilotSize < probeSize {
		pilotSize = probeSize
	}

	var pm stats.Moments
	if err := s.PilotSampleChunks(r, pilotSize, block.MomentsSink(&pm)); err != nil {
		return Pilot{}, fmt.Errorf("core: pilot sample: %w", err)
	}
	return newPilot(pm.Mean(), pm.SampleStdDev(), pm.Min(), pm.Max(), pilotSize+probeSize, cfg, s.TotalLen())
}

// planSize converts the pilot's σ into the calculation-phase sampling plan:
// Eq. (1) gives m for the precision target, SampleFraction scales it, and
// MaxSampleRate caps the resulting rate.
func planSize(sigma float64, cfg Config, totalLen int64) (rate float64, m int64, err error) {
	m, err = stats.RequiredSampleSize(sigma, cfg.Precision, cfg.Confidence)
	if err != nil {
		return 0, 0, fmt.Errorf("core: sample size: %w", err)
	}
	m = int64(float64(m) * cfg.SampleFraction)
	if m < 1 {
		m = 1
	}
	rate = float64(m) / float64(totalLen)
	if rate > cfg.MaxSampleRate {
		rate = cfg.MaxSampleRate
		m = int64(rate * float64(totalLen))
	}
	return rate, m, nil
}

// RederivePilot recomputes the precision-dependent fields of a pilot —
// SampleRate, SampleSize and RelaxedE — from its frozen statistics (σ,
// sketch0, min/max) for a new per-query configuration. FreezePilot's
// sampling consumes the RNG independently of the precision target, so a
// cached pilot plus RederivePilot reproduces exactly what a cold
// FreezePilot would return for that configuration.
func RederivePilot(p Pilot, cfg Config, totalLen int64) (Pilot, error) {
	rate, m, err := planSize(p.Sigma, cfg, totalLen)
	if err != nil {
		return Pilot{}, err
	}
	p.SampleRate = rate
	p.SampleSize = m
	p.RelaxedE = relaxFactor * cfg.Precision
	return p, nil
}

// BlockPilot carries per-block pilot statistics for the non-i.i.d.
// extension (§VII-C): per-block sketch0/σ give per-block data boundaries,
// and the variances drive variance-aware sampling rates.
type BlockPilot struct {
	Sketch0 float64
	Sigma   float64
	Len     int64
}

// BlockRates computes variance-aware per-block sampling rates (§VII-C):
// blev_i = (1+σ_i²)/(b+Σσ_j²) and rate_i = r·M·blev_i/|B_i|, capped at
// maxRate. Blocks with more internal dispersion get proportionally larger
// samples.
func BlockRates(pilots []BlockPilot, overallRate float64, totalLen int64, maxRate float64) []float64 {
	b := float64(len(pilots))
	sumVar := 0.0
	for _, p := range pilots {
		sumVar += p.Sigma * p.Sigma
	}
	rates := make([]float64, len(pilots))
	for i, p := range pilots {
		if p.Len == 0 {
			continue
		}
		blev := (1 + p.Sigma*p.Sigma) / (b + sumVar)
		r := overallRate * float64(totalLen) * blev / float64(p.Len)
		if r > maxRate {
			r = maxRate
		}
		rates[i] = r
	}
	return rates
}
