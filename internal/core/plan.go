package core

import (
	"context"

	"isla/internal/block"
	"isla/internal/leverage"
	"isla/internal/modulate"
	"isla/internal/stats"
)

// Plan is a prepared i.i.d. estimation run: the Pre-estimation outputs
// frozen into the per-block parameters every Calculation worker needs. A
// Plan is immutable after creation and safe to share across goroutines —
// this is what the distributed and online extensions hand to workers.
type Plan struct {
	Cfg    Config
	Pilot  Pilot
	Shift  float64             // negative-data translation d
	Bounds leverage.Boundaries // data boundaries (shifted coordinates)
	Opts   modulate.Options    // iteration options incl. geometry
}

// PlanIID runs the Pre-estimation module and freezes the per-block
// parameters. r drives the pilot sampling.
func PlanIID(s *block.Store, cfg Config, r *stats.RNG) (*Plan, error) {
	pilot, err := PreEstimate(s, cfg, r)
	if err != nil {
		return nil, err
	}
	shift := 0.0
	if pilot.Min <= 0 {
		shift = -pilot.Min + pilot.Sigma + 1
	}
	bounds, err := leverage.NewBoundaries(pilot.Sketch0+shift, pilot.Sigma, cfg.P1, cfg.P2)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Cfg:    cfg,
		Pilot:  pilot,
		Shift:  shift,
		Bounds: bounds,
		Opts:   cfg.modOptions(pilot.Sigma, pilot.RelaxedE),
	}, nil
}

// PlansFromPilots freezes per-block pilot statistics into executable plans
// for the non-i.i.d. pipeline (§VII-C): one Plan per block, each with its own
// data boundaries from its own pilot, and (optionally) variance-aware
// per-block sampling rates. It consumes no randomness, so it can re-derive
// plans from a cached pre-estimation at any per-query precision target. overall must already carry the sampling rate for cfg
// (see RederivePilot).
func PlansFromPilots(pilots []BlockPilot, overall Pilot, cfg Config, totalLen int64) ([]*Plan, error) {
	shift := 0.0
	if overall.Min <= 0 {
		shift = -overall.Min + overall.Sigma + 1
	}
	rates := make([]float64, len(pilots))
	for i := range rates {
		rates[i] = overall.SampleRate
	}
	if cfg.VarianceAwareRates {
		rates = BlockRates(pilots, overall.SampleRate, totalLen, cfg.MaxSampleRate)
	}
	plans := make([]*Plan, len(pilots))
	for i := range pilots {
		if pilots[i].Len == 0 {
			continue
		}
		bounds, err := leverage.NewBoundaries(pilots[i].Sketch0+shift, pilots[i].Sigma, cfg.P1, cfg.P2)
		if err != nil {
			return nil, err
		}
		plans[i] = &Plan{
			Cfg:   cfg,
			Shift: shift,
			Pilot: Pilot{
				Sketch0:    pilots[i].Sketch0,
				Sigma:      pilots[i].Sigma,
				SampleRate: rates[i],
				RelaxedE:   overall.RelaxedE,
			},
			Bounds: bounds,
			Opts:   cfg.modOptions(pilots[i].Sigma, overall.RelaxedE),
		}
	}
	return plans, nil
}

// SampleSize resolves the plan's draw count for a block of the given
// length: rate·len, at least one. Exported so a remote executor sizes a
// shard's draw exactly as SampleBlock would locally.
func (p *Plan) SampleSize(blen int64) int64 {
	m := int64(p.Pilot.SampleRate * float64(blen))
	if m < 1 {
		m = 1
	}
	return m
}

// SampleBlock runs Algorithm 1 on one block: the plan's sample quota, drawn
// and folded by SampleSums. It is the form for callers outside a query;
// RunBlock draws under the query's context.
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

// RunBlock executes the full Calculation phase (sampling + iteration) on
// one block. A cancelled ctx ends the draw within a chunk.
func (p *Plan) RunBlock(ctx context.Context, b block.Block, r *stats.RNG) (BlockResult, error) {
	m := p.SampleSize(b.Len())
	acc, err := SampleSums(ctx, b, r, m, p.Bounds, p.Shift)
	if err != nil {
		return BlockResult{}, err
	}
	answer, detail, err := p.Resolve(acc)
	if err != nil {
		return BlockResult{}, err
	}
	return BlockResult{
		BlockID: b.ID(),
		Len:     b.Len(),
		Samples: m,
		Answer:  answer,
		Detail:  detail,
	}, nil
}

// Summarize implements the Summarization module: partial answers weighted
// by block size, Σ avg_j·|B_j| / M, packaged with the precision assurance.
func (p *Plan) Summarize(perBlock []BlockResult, totalLen int64) Result {
	return SummarizeBlocks(p.Cfg, p.Pilot, p.Shift, perBlock, totalLen)
}

// SummarizeBlocks is the Summarization module as a free function, usable
// with per-block plans (non-i.i.d. mode) where no single Plan owns the run.
func SummarizeBlocks(cfg Config, pilot Pilot, shift float64, perBlock []BlockResult, totalLen int64) Result {
	res := Result{Pilot: pilot, Shift: shift, PerBlock: perBlock}
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
