// Package core is ISLA's primary engine: it wires the Pre-estimation,
// Calculation and Summarization modules of the paper's system architecture
// (Fig. 2) into a single estimator over a block store.
//
//   - Pre-estimation draws a pilot sample to estimate σ, computes the
//     sampling rate r = u²σ²/(M e²) (Eq. 1), and produces the sketch
//     estimator sketch0 under the relaxed precision t_e·e.
//   - Calculation runs per block: Algorithm 1 (streaming sampling into
//     paramS/paramL) followed by Algorithm 2 (iterative modulation of the
//     l-estimator and the sketch).
//   - Summarization combines partial answers weighted by block size:
//     Σ avg_j·|B_j| / M.
package core

import (
	"errors"
	"fmt"

	"isla/internal/leverage"
	"isla/internal/modulate"
)

// Config holds every tunable of the ISLA estimator. The zero value is not
// usable; start from DefaultConfig and override fields.
type Config struct {
	// Precision is the user's desired precision e (half-width of the
	// confidence interval around the answer). Must be positive.
	Precision float64
	// Confidence is β ∈ (0,1); paper default 0.95.
	Confidence float64
	// P1, P2 are the data-boundary factors (paper defaults 0.5 and 2.0).
	P1, P2 float64
	// Lambda is the step-length factor λ ∈ (0,1); paper default 0.8.
	Lambda float64
	// Eta is the convergence speed η ∈ (0,1); paper default 0.5.
	Eta float64
	// Threshold is the iteration stop threshold thr; default 1e-6.
	Threshold float64
	// RelaxFactor is t_e > 1, the relaxed-precision multiplier for the
	// pilot sketch (default 3): sketch0 is computed to precision t_e·e,
	// so the pilot costs 1/t_e² of the main sample and the §VII-B
	// modulation boundary is ±t_e·e around sketch0.
	RelaxFactor float64
	// PilotSize optionally fixes the pilot sample size used to estimate σ
	// and sketch0. Zero means derive it from the relaxed precision.
	PilotSize int64
	// SampleFraction scales the Eq.-1 sample size; the paper's headline
	// experiment runs ISLA at 1/3 of the uniform-sampling size
	// (SampleFraction = 1/3). Default 1 (full size).
	SampleFraction float64
	// MaxSampleRate caps r so pathological σ estimates cannot demand more
	// samples than data; default 1 (full scan at worst).
	MaxSampleRate float64
	// QPolicy maps the deviation degree dev=|S|/|L| to the allocation
	// parameter q.
	QPolicy leverage.QPolicy
	// BalanceBand is the |S|≈|L| band triggering Case 5; default 0.01.
	BalanceBand float64
	// Seed makes runs deterministic.
	Seed uint64
	// PerBlockBounds recomputes sketch0, σ and the data boundaries inside
	// every block (the non-i.i.d. extension, §VII-C). Default false.
	PerBlockBounds bool
	// VarianceAwareRates allocates per-block sampling rates by block
	// variance leverage blev_i = (1+σ_i²)/(b+Σσ_j²) (§VII-C). Only
	// meaningful together with PerBlockBounds. Default false.
	VarianceAwareRates bool
	// FixedAlpha, when non-nil, disables the iteration scheme and uses the
	// given constant leverage degree α — the ablation of the paper's
	// critique of SLEV's fixed degree.
	FixedAlpha *float64
	// StepMode selects how modulation step lengths are derived:
	// modulate.LambdaAuto (default) evaluates the deviations quantitatively
	// per §V-B / Theorem 1; modulate.LambdaFixed uses the constant λ with
	// the per-case dominance rules (ablation).
	StepMode modulate.Mode
	// Workers bounds the per-block concurrency of every phase a local store
	// runs (pilot probes, calculation): how many blocks the execution
	// runtime resolves simultaneously. 0 runs sequentially (one worker),
	// negative uses one worker per CPU, positive is taken as-is. Per-block
	// seeds and start states are derived before dispatch, so the answer is
	// bit-identical for every setting — Workers is purely a speed knob.
	Workers int
	// SummaryPilot serves the pre-estimation from persisted block summaries
	// (ISLB v2 footers) when every block carries one: sketch0, σ and
	// min/max are then exact, the pilot draws zero samples and consumes no
	// RNG state, and on a file store no block is read at all. Stores
	// without full summaries fall back to the sampled pilot. Default false:
	// sampled pilots keep answers bit-identical with earlier releases.
	SummaryPilot bool
	// AllowPartial lets a run over a store with quarantined (corrupt)
	// blocks degrade to the intact fraction instead of failing: the
	// estimate then averages over the covered rows only and
	// Result.Partial records what was lost — the same accounting a shard
	// tier's lost blocks get (whether *it* may degrade is its transport's
	// setting, not this one). Default false: a damaged store fails loudly
	// with a *QuarantinedError.
	AllowPartial bool
}

// DefaultConfig returns the paper's default experimental parameters.
func DefaultConfig() Config {
	return Config{
		Precision:      0.1,
		Confidence:     0.95,
		P1:             0.5,
		P2:             2.0,
		Lambda:         0.8,
		Eta:            0.5,
		Threshold:      1e-6,
		RelaxFactor:    3,
		SampleFraction: 1,
		MaxSampleRate:  1,
		QPolicy:        leverage.DefaultQPolicy(),
		BalanceBand:    0.01,
		Seed:           1,
	}
}

// Validate reports the first invalid field, or nil.
func (c Config) Validate() error {
	switch {
	case c.Precision <= 0:
		return errors.New("core: precision must be positive")
	case !(c.Confidence > 0 && c.Confidence < 1):
		return fmt.Errorf("core: confidence %v outside (0,1)", c.Confidence)
	case !(c.P1 > 0 && c.P2 > c.P1):
		return fmt.Errorf("core: need 0 < p1 < p2, got %v, %v", c.P1, c.P2)
	case !(c.Lambda > 0 && c.Lambda < 1):
		return fmt.Errorf("core: lambda %v outside (0,1)", c.Lambda)
	case !(c.Eta > 0 && c.Eta < 1):
		return fmt.Errorf("core: eta %v outside (0,1)", c.Eta)
	case c.Threshold <= 0:
		return errors.New("core: threshold must be positive")
	case c.RelaxFactor <= 1:
		return fmt.Errorf("core: relax factor %v must exceed 1", c.RelaxFactor)
	case c.SampleFraction <= 0 || c.SampleFraction > 1:
		return fmt.Errorf("core: sample fraction %v outside (0,1]", c.SampleFraction)
	case c.MaxSampleRate <= 0 || c.MaxSampleRate > 1:
		return fmt.Errorf("core: max sample rate %v outside (0,1]", c.MaxSampleRate)
	case c.BalanceBand <= 0:
		return errors.New("core: balance band must be positive")
	case c.PilotSize < 0:
		return errors.New("core: pilot size must be non-negative")
	}
	return nil
}

// modOptions converts the config into iteration options for a block whose
// boundaries were built from the given σ; bound is the sketch's relaxed
// confidence half-width (the §VII-B modulation boundary).
func (c Config) modOptions(sigma, bound float64) modulate.Options {
	return modulate.Options{
		Mode:        c.StepMode,
		Eta:         c.Eta,
		Lambda:      c.Lambda,
		Threshold:   c.Threshold,
		BalanceBand: c.BalanceBand,
		Sigma:       sigma,
		P1:          c.P1,
		P2:          c.P2,
		SketchBound: bound,
	}
}
