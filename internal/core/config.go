// Package core is ISLA's primary engine: it wires the Pre-estimation,
// Calculation and Summarization modules of the paper's system architecture
// (Fig. 2) into a single estimator over a block store.
//
//   - Pre-estimation probes every block for its σ and sketch estimator
//     sketch0 (§VII-C boundaries per block, relaxed precision t_e·e) and
//     pools the probes into the sampling rate r = u²σ²/(M e²) (Eq. 1).
//   - Calculation runs per block: Algorithm 1 (streaming sampling into
//     paramS/paramL) followed by Algorithm 2 (iterative modulation of the
//     l-estimator and the sketch).
//   - Summarization combines partial answers weighted by block size,
//     Σ avg_j·|B_j| / M, and certifies the result against the stratified
//     plain mean M of every draw, pilot probes included: an answer
//     farther from M than e − u·SE is moved into that band, so its ±e
//     interval contains M's own u·SE one.
//
// The execution modes are numbers of one calculation round: a query
// (EstimateFrozen) runs it once at the planned rate, an online session
// (Session, §VII-A) once per Refine at a fraction of it, carrying its
// stored sums forward, and a time-bound run (EstimateTimeBound, §VII-F)
// is a session's rounds racing a deadline.
package core

import (
	"errors"
	"fmt"

	"isla/internal/leverage"
	"isla/internal/modulate"
)

// The paper's fixed estimator settings, which no query varies:
//   - relaxFactor is t_e > 1, the relaxed-precision multiplier for the pilot
//     sketch: sketch0 is computed to precision t_e·e, so the pilot costs
//     1/t_e² of the main sample and the §VII-B modulation boundary is
//     ±t_e·e around sketch0;
//   - p2 is the outer data-boundary factor (§IV; Fig. 6(d) varies only p1).
//
// Algorithm 2's stop threshold thr and its Case-5 balance band are package
// modulate's constants.
const (
	relaxFactor = 3
	p2          = 2
)

// Config holds every tunable of the ISLA estimator. The zero value is not
// usable; start from DefaultConfig and override fields. The relaxed-precision
// multiplier t_e = 3, the outer boundary factor p2 = 2, the iteration
// threshold thr = 1e-6 and the 1 % balance band are the paper's fixed
// values, not settings.
type Config struct {
	// Precision is the user's desired precision e (half-width of the
	// confidence interval around the answer). Must be positive.
	Precision float64
	// Confidence is β ∈ (0,1); paper default 0.95.
	Confidence float64
	// P1 is the inner data-boundary factor, 0 < p1 < p2 = 2 (paper
	// default 0.5).
	P1 float64
	// Lambda is the step-length factor λ ∈ (0,1); paper default 0.8.
	Lambda float64
	// Eta is the convergence speed η ∈ (0,1); paper default 0.5.
	Eta float64
	// PilotSize optionally fixes the pilot's size: the draws probing each
	// block for its σ and sketch0 (capped at the block's length), and the
	// accepted values a filtered pilot grows to. Zero takes the defaults: 1 %
	// of each block but at least pilotFloor (400) draws, and
	// filterPilotTarget (2 000) accepted values. It keys plan-cache entries,
	// since it moves the pilot.
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
	// Seed makes runs deterministic.
	Seed uint64
	// VarianceAwareRates allocates per-block sampling rates by block
	// variance leverage blev_i = (1+σ_i²)/(b+Σσ_j²) (§VII-C) instead of the
	// pooled Eq.-1 rate. Default false.
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
	// Result.Partial records what was lost. The same setting lets a query
	// over a shard tier degrade when blocks lose every replica, with the
	// same accounting; a sharded table has no switch of its own. Filtered
	// estimates never degrade. Default false: a damaged store fails loudly
	// with a *QuarantinedError, a shard tier with a *BlocksLostError.
	AllowPartial bool
}

// DefaultConfig returns the paper's default experimental parameters.
func DefaultConfig() Config {
	return Config{
		Precision:      0.1,
		Confidence:     0.95,
		P1:             0.5,
		Lambda:         0.8,
		Eta:            0.5,
		SampleFraction: 1,
		MaxSampleRate:  1,
		QPolicy:        leverage.DefaultQPolicy(),
		Seed:           1,
	}
}

// Validate reports the first invalid field, or nil.
func (c Config) Validate() error {
	q := c.QPolicy
	switch {
	case c.Precision <= 0:
		return errors.New("core: precision must be positive")
	case !(c.Confidence > 0 && c.Confidence < 1):
		return fmt.Errorf("core: confidence %v outside (0,1)", c.Confidence)
	case !(c.P1 > 0 && c.P1 < p2):
		return fmt.Errorf("core: need 0 < p1 < p2 = %v, got p1 = %v", p2, c.P1)
	case !(c.Lambda > 0 && c.Lambda < 1):
		return fmt.Errorf("core: lambda %v outside (0,1)", c.Lambda)
	case !(c.Eta > 0 && c.Eta < 1):
		return fmt.Errorf("core: eta %v outside (0,1)", c.Eta)
	case c.SampleFraction <= 0 || c.SampleFraction > 1:
		return fmt.Errorf("core: sample fraction %v outside (0,1]", c.SampleFraction)
	case c.MaxSampleRate <= 0 || c.MaxSampleRate > 1:
		return fmt.Errorf("core: max sample rate %v outside (0,1]", c.MaxSampleRate)
	case c.PilotSize < 0:
		return errors.New("core: pilot size must be non-negative")
	case !(q.QMild >= 1 && q.QSevere >= 1):
		return fmt.Errorf("core: q′ %v, %v below 1", q.QMild, q.QSevere)
	case !(q.ModerateLo <= q.MildLo && q.MildLo <= q.MildHi && q.MildHi <= q.ModerateHi):
		return fmt.Errorf("core: q-policy bands not nested: need %v ≤ %v ≤ %v ≤ %v", q.ModerateLo, q.MildLo, q.MildHi, q.ModerateHi)
	}
	return nil
}

// Bounds returns the data boundaries around center for a block of
// deviation sigma: the one place the boundary factors are read.
func (c Config) Bounds(center, sigma float64) (leverage.Boundaries, error) {
	return leverage.NewBoundaries(center, sigma, c.P1, p2)
}
