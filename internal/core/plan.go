package core

import (
	"context"
	"math"

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
				PilotSize:  pilots[i].Draws,
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
// from r and folded by PhaseBlock, unresolved. It is the form for callers
// outside a query; a query's calculation round is a BlockSource phase.
func (p *Plan) SampleBlock(b block.Block, r *stats.RNG) (*leverage.Accum, int64, error) {
	req := p.request(0, p.SampleSize(b.Len()), r.State(), nil)
	rep, err := PhaseBlock(context.TODO(), b, req, nil)
	if err != nil {
		return nil, 0, err
	}
	*r = *rep.End.RNG()
	return rep.Sums, req.Draws, nil
}

// Resolve runs Algorithm 2 (or the fixed-α ablation) on an accumulator and
// returns the partial answer translated back to original coordinates. The
// detail's DrawMean, DrawVar and Draws are the block's plain mean, its
// squared standard error and the draws behind them (poolDraws).
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
	detail.DrawMean, detail.DrawVar, detail.Draws = p.poolDraws(acc)
	return detail.Answer - p.Shift, detail, nil
}

// poolDraws returns the plain mean, in original coordinates, of the block's
// calculation draws (acc's centred sums D and D2) together with its pilot
// probe's P = Pilot.PilotSize draws (mean Sketch0, deviation Sigma), its
// squared standard error s²/n and n. The probe's draws are uniform draws
// from the same block on a stream of their own, so the two sets are one
// larger sample (Cochran, Sampling Techniques, ch. 5):
//
//	x̄ = (P·x̄_p + m·x̄_c)/n,  s² = ((P−1)σ_p² + (m−1)s_c² + P·m/n·(x̄_p − x̄_c)²)/(n−1),  n = P + m.
//
// The probe is folded in only when the calculation's own variance is
// positive: draws of no spread — constant data, or a reply without the
// centred sums — keep theirs, zero, for the summarization to abstain on.
func (p *Plan) poolDraws(acc *leverage.Accum) (mean, v float64, n int64) {
	m := acc.Seen
	if m == 0 {
		return 0, 0, 0
	}
	fm := float64(m)
	mean = acc.Bounds.Center - p.Shift + acc.D/fm
	if m < 2 {
		return mean, 0, m
	}
	s2 := max(0, acc.D2-acc.D*acc.D/fm) / (fm - 1)
	if s2 == 0 || p.Pilot.PilotSize == 0 {
		return mean, s2 / fm, m
	}
	fp := float64(p.Pilot.PilotSize)
	fn := fp + fm
	d := p.Pilot.Sketch0 - mean
	mean = (fp*p.Pilot.Sketch0 + fm*mean) / fn
	s2 = ((fp-1)*p.Pilot.Sigma*p.Pilot.Sigma + (fm-1)*s2 + fp*fm/fn*d*d) / (fn - 1)
	return mean, s2 / fn, m + p.Pilot.PilotSize
}

// SummarizeBlocks implements the Summarization module: partial answers
// weighted by block size, Σ avg_j·|B_j| / M, packaged with the precision
// assurance ±e (cfg.Precision) and the pooled pilot. The result keeps
// nothing of perBlock.
//
// The weighted answer is Raw. Beside it the same weights give the
// stratified plain mean of every draw the blocks hold, pilot probes
// included (Plan.Resolve), M = Σ w_j·x̄_j with w_j = |B_j|/M, and its
// standard error SE = √(Σ w_j²·s_j²/n_j) (Cochran, Sampling Techniques,
// ch. 5): DrawMean and DrawSE. With u the normal quantile of
// cfg.Confidence (Eq. 1's), M ± u·SE covers the truth at that confidence,
// and the answer is certified against it: it is Raw, bit for bit, when Raw
// lies within b = max(0, e − u·SE) of M, and otherwise M ± b on Raw's side,
// the nearest value whose ±e interval still contains M ± u·SE; Fallback
// then reports that the answer is not Raw. The certificate abstains — the
// answer is Raw — when a block that answered records fewer than two draws,
// or draws of no spread (DrawVar zero): constant data, or a worker reply
// that does not carry the centred sums, whose DrawMean would be the block's
// boundary centre.
func SummarizeBlocks(cfg Config, pilot Pilot, shift float64, perBlock []BlockResult, totalLen int64) Result {
	return summarize(cfg, pilot, shift, perBlock, totalLen, cfg.Precision)
}

// summarize is SummarizeBlocks certifying the answer against a band of
// half-width h in place of cfg.Precision; the printed interval stays ±e.
func summarize(cfg Config, pilot Pilot, shift float64, perBlock []BlockResult, totalLen int64, h float64) Result {
	res := Result{Pilot: pilot, Shift: shift}
	var weighted, mean, se2 float64
	certify := totalLen > 0
	for _, br := range perBlock {
		weighted += br.Answer * float64(br.Len)
		res.TotalSamples += br.Samples
		if br.Len == 0 {
			continue // empty, down or lost: no answer to weigh
		}
		if br.Detail.Draws < 2 || br.Detail.DrawVar == 0 {
			certify = false
			continue
		}
		w := float64(br.Len) / float64(totalLen)
		mean += w * br.Detail.DrawMean
		se2 += w * w * br.Detail.DrawVar
	}
	if totalLen > 0 {
		res.Raw = weighted / float64(totalLen)
	}
	res.Estimate = res.Raw
	if certify {
		res.DrawMean, res.DrawSE = mean, math.Sqrt(se2)
		if u, err := stats.ZValue(cfg.Confidence); err == nil {
			b := max(0, h-u*res.DrawSE)
			if d := res.Raw - mean; math.Abs(d) > b {
				res.Estimate, res.Fallback = mean+math.Copysign(b, d), true
			}
		}
	}
	res.Sum = res.Estimate * float64(totalLen)
	res.CI = stats.ConfidenceInterval{
		Center:     res.Estimate,
		HalfWidth:  cfg.Precision,
		Confidence: cfg.Confidence,
	}
	return res
}
