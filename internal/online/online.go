// Package online implements the paper's online-aggregation extension
// (§VII-A): after an initial answer is delivered, the user can ask for more
// precision and the system continues from the stored per-block paramS and
// paramL power sums — no sample is ever kept, and every refinement round
// merges new streaming sums into the old ones before re-running the
// iteration phase.
//
// A session plans with core.EstimateFrozen's own helpers — the per-block
// pilot frozen, FrozenPilot.Plans derived from it — and each round is one
// calculation phase of the store's core.BlockSource: per-block seeds come
// off the frozen generator up front (core.PlanSeeds), every planned block
// carries the sums the previous round returned as its Prior, and the source
// merges the round's fresh sums into them and resolves the block. A first
// round at fraction 1 is core.Estimate's answer.
package online

import (
	"context"
	"errors"
	"math"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/leverage"
	"isla/internal/stats"
)

// Session is a resumable aggregation over one store. Construct with
// NewSession, then call Refine repeatedly; each call adds samples and
// returns a progressively tighter answer. Rounds run on the exec runtime
// with the session config's Workers concurrency; the per-round seed stream
// does not depend on it.
type Session struct {
	store   *block.Store
	cfg     core.Config
	overall core.Pilot
	plans   []*core.Plan // nil for an empty block
	shift   float64      // the plans' common negative-data translation
	sums    []*leverage.Accum
	rng     stats.RNGState
	rounds  int
}

// Snapshot is the state of the session after a refinement round.
type Snapshot struct {
	Result core.Result
	// Round counts completed refinement rounds (1 after the first).
	Round int
	// EffectivePrecision is the half-width u·σ/√m implied by all samples
	// drawn so far — it shrinks as rounds accumulate.
	EffectivePrecision float64
}

// NewSession prepares an online aggregation with the given configuration.
// cfg.Precision sets the precision of the FIRST round; later rounds tighten
// it. A session keeps no partial accounting, so a store with quarantined
// blocks is refused with a *core.QuarantinedError whatever
// cfg.AllowPartial says — here and at every round.
func NewSession(s *block.Store, cfg core.Config) (*Session, error) {
	if err := core.RefuseQuarantined(s); err != nil {
		return nil, err
	}
	fp, err := core.LocalExecutor{S: s}.FreezePilot(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	overall, plans, shift, err := fp.Plans(cfg, s.TotalLen())
	if err != nil {
		return nil, err
	}
	return &Session{
		store:   s,
		cfg:     cfg,
		overall: overall,
		plans:   plans,
		shift:   shift,
		sums:    make([]*leverage.Accum, len(plans)),
		rng:     fp.RNG,
	}, nil
}

// Rounds returns the number of completed refinement rounds.
func (s *Session) Rounds() int { return s.rounds }

// TotalSamples returns all calculation samples drawn so far.
func (s *Session) TotalSamples() int64 {
	var t int64
	for _, acc := range s.sums {
		if acc != nil {
			t += acc.Seen
		}
	}
	return t
}

// Refine draws one more round of samples (fraction of each block's planned
// rate; 1 = a full Eq.-1 round) into the stored power sums and recomputes
// the answer. It returns the refined snapshot.
func (s *Session) Refine(fraction float64) (Snapshot, error) {
	return s.RefineContext(context.Background(), fraction)
}

// RefineContext is Refine with a cancellation context: a cancelled round
// stops its draws within a chunk and leaves the session as it was before the
// round, so the next call draws exactly what the cancelled one would have.
// A round refuses, drawing nothing, once a scrub has quarantined any of the
// store's blocks.
func (s *Session) RefineContext(ctx context.Context, fraction float64) (Snapshot, error) {
	if fraction <= 0 {
		return Snapshot{}, errors.New("online: fraction must be positive")
	}
	if err := core.RefuseQuarantined(s.store); err != nil {
		return Snapshot{}, err
	}
	src := core.LocalExecutor{S: s.store}.Source(s.cfg)
	ids, lens := src.Layout()
	rng := s.rng.RNG()
	seeds := core.PlanSeeds(rng, s.plans)
	reqs := make([]core.CalcReq, 0, len(s.plans))
	for i, p := range s.plans {
		if p != nil {
			m := max(1, int64(fraction*p.Pilot.SampleRate*float64(lens[i])))
			reqs = append(reqs, core.CalcReq{Block: i, Plan: p, Seed: seeds[i], Draws: m, Prior: s.sums[i]})
		}
	}
	reps, err := src.Calc(ctx, reqs)
	if err != nil {
		return Snapshot{}, err
	}
	perBlock := make([]core.BlockResult, len(s.plans))
	for i := range perBlock {
		perBlock[i].BlockID = ids[i]
	}
	for k := range reps {
		i := reqs[k].Block
		perBlock[i], s.sums[i] = reps[k].Result, reps[k].Sums
	}
	s.rng = rng.State()
	s.rounds++
	res := core.SummarizeBlocks(s.cfg, s.overall, s.shift, perBlock, s.store.TotalLen())

	// The effective precision reflects the accumulated sample mass.
	u, err := stats.ZValue(s.cfg.Confidence)
	if err != nil {
		return Snapshot{}, err
	}
	eff := math.Inf(1)
	if total := res.TotalSamples; total > 0 {
		eff = u * s.overall.Sigma / math.Sqrt(float64(total))
	}
	res.CI.HalfWidth = eff
	return Snapshot{Result: res, Round: s.rounds, EffectivePrecision: eff}, nil
}
