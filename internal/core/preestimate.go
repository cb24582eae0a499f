package core

import (
	"errors"
	"fmt"

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

// BlockPilot carries one block's pilot statistics (§VII-C): its sketch0/σ
// give the block's data boundaries, and the variances drive variance-aware
// sampling rates. Draws counts the probe's uniform draws, whose mean and
// sample deviation Sketch0 and Sigma are; it is zero for a summary pilot,
// which is a census, not a sample.
type BlockPilot struct {
	Sketch0 float64
	Sigma   float64
	Len     int64
	Draws   int64
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
