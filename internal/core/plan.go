package core

import (
	"context"

	"isla/internal/block"
	"isla/internal/leverage"
	"isla/internal/modulate"
	"isla/internal/stats"
)

// Plan is one block's prepared calculation: the Pre-estimation outputs
// frozen into the parameters its Calculation worker needs — sampling rate,
// data boundaries built from the block's own pilot, and the modulation
// options. A Plan is immutable after creation and safe to share across
// goroutines; a shard worker receives its fields over the wire.
type Plan struct {
	Cfg    Config
	Pilot  Pilot
	Shift  float64             // negative-data translation d
	Bounds leverage.Boundaries // data boundaries (shifted coordinates)
	Opts   modulate.Options    // iteration options incl. geometry
}

// PlansFromPilots freezes per-block pilot statistics into executable plans
// (§VII-C): one Plan per non-empty block, each with its own data boundaries
// from its own pilot, the pooled sampling rate or (with
// cfg.VarianceAwareRates) a variance-aware per-block one. It consumes no
// randomness, so it can re-derive plans from a cached pre-estimation at any
// per-query precision target. overall must already carry the sampling rate
// for cfg (see RederivePilot).
func PlansFromPilots(pilots []BlockPilot, overall Pilot, cfg Config, totalLen int64) ([]*Plan, error) {
	plans := make([]*Plan, len(pilots))
	if err := derivePlans(make([]Plan, len(pilots)), plans, pilots, overall, cfg, totalLen); err != nil {
		return nil, err
	}
	return plans, nil
}

// derivePlans is PlansFromPilots writing block i's plan into dst[i] and
// pointing plans[i] at it (nil for an empty block); both are len(pilots) long.
func derivePlans(dst []Plan, plans []*Plan, pilots []BlockPilot, overall Pilot, cfg Config, totalLen int64) error {
	shift := 0.0
	if overall.Min <= 0 {
		shift = -overall.Min + overall.Sigma + 1
	}
	var rates []float64 // nil: every block samples at the pooled rate
	if cfg.VarianceAwareRates {
		rates = BlockRates(pilots, overall.SampleRate, totalLen, cfg.MaxSampleRate)
	}
	for i := range pilots {
		plans[i] = nil
		if pilots[i].Len == 0 {
			continue
		}
		bounds, err := leverage.NewBoundaries(pilots[i].Sketch0+shift, pilots[i].Sigma, cfg.P1, cfg.P2)
		if err != nil {
			return err
		}
		rate := overall.SampleRate
		if rates != nil {
			rate = rates[i]
		}
		dst[i] = Plan{
			Cfg:   cfg,
			Shift: shift,
			Pilot: Pilot{
				Sketch0:    pilots[i].Sketch0,
				Sigma:      pilots[i].Sigma,
				SampleRate: rate,
				RelaxedE:   overall.RelaxedE,
			},
			Bounds: bounds,
			Opts:   cfg.modOptions(pilots[i].Sigma, overall.RelaxedE),
		}
		plans[i] = &dst[i]
	}
	return nil
}

// SampleSize resolves the plan's draw count for a block of the given
// length: rate·len, at least one — the Draws a calculation round at
// fraction 1, EstimateFrozen's, requests.
func (p *Plan) SampleSize(blen int64) int64 {
	m := int64(p.Pilot.SampleRate * float64(blen))
	if m < 1 {
		m = 1
	}
	return m
}

// SampleBlock runs Algorithm 1 on one block: the plan's sample quota, drawn
// and folded by SampleSums. It is the form for callers outside a query; a
// query's calculation phase is BlockSource.Calc.
func (p *Plan) SampleBlock(b block.Block, r *stats.RNG) (*leverage.Accum, int64, error) {
	m := p.SampleSize(b.Len())
	acc, err := SampleSums(context.TODO(), b, r, m, p.Bounds, p.Shift)
	if err != nil {
		return nil, 0, err
	}
	return acc, m, nil
}

// Resolve runs Algorithm 2 (or the fixed-α ablation) on an accumulator and
// returns the partial answer translated back to original coordinates.
func (p *Plan) Resolve(acc *leverage.Accum) (float64, modulate.Result, error) {
	sketch0 := p.Pilot.Sketch0 + p.Shift
	var detail modulate.Result
	if p.Cfg.FixedAlpha != nil {
		q := p.Cfg.QPolicy.Q(acc.Dev())
		k, c := leverage.KC(acc.S, acc.L, q)
		alpha := *p.Cfg.FixedAlpha
		detail = modulate.Result{Answer: k*alpha + c, Alpha: alpha, K: k, C: c, Q: q, Sketch: sketch0}
		if acc.S.Count == 0 && acc.L.Count == 0 {
			detail.Answer = sketch0
		}
	} else {
		var err error
		detail, err = modulate.Run(acc.S, acc.L, sketch0, p.Cfg.QPolicy, p.Opts)
		if err != nil {
			return 0, modulate.Result{}, err
		}
	}
	return detail.Answer - p.Shift, detail, nil
}

// SummarizeBlocks implements the Summarization module: partial answers
// weighted by block size, Σ avg_j·|B_j| / M, packaged with the precision
// assurance and the pooled pilot. The result keeps nothing of perBlock.
func SummarizeBlocks(cfg Config, pilot Pilot, shift float64, perBlock []BlockResult, totalLen int64) Result {
	res := Result{Pilot: pilot, Shift: shift}
	var weighted float64
	for _, br := range perBlock {
		weighted += br.Answer * float64(br.Len)
		res.TotalSamples += br.Samples
	}
	if totalLen > 0 {
		res.Estimate = weighted / float64(totalLen)
	}
	res.Sum = res.Estimate * float64(totalLen)
	res.CI = stats.ConfidenceInterval{
		Center:     res.Estimate,
		HalfWidth:  cfg.Precision,
		Confidence: cfg.Confidence,
	}
	return res
}
