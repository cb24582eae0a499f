// Package online implements the paper's online-aggregation extension
// (§VII-A): after an initial answer is delivered, the user can ask for more
// precision and the system continues from the stored per-block paramS and
// paramL power sums — no sample is ever kept, and every refinement round
// merges new streaming sums into the old ones before re-running the
// iteration phase.
//
// A session plans with core.EstimateFrozen's own helpers — the per-block
// pilot frozen, FrozenPilot.Plans derived from it — and each round is one
// pass of the shared exec runtime: per-block seeds come off the frozen
// generator up front (core.PlanSeeds), blocks refine concurrently
// (Session.Workers), and the per-round snapshot is assembled from the
// in-order result stream. A first round at fraction 1 is core.Estimate's
// answer.
package online

import (
	"context"
	"errors"
	"fmt"
	"math"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/exec"
	"isla/internal/leverage"
	"isla/internal/stats"
)

// Session is a resumable aggregation over one store. Construct with
// NewSession, then call Refine repeatedly; each call adds samples and
// returns a progressively tighter answer.
type Session struct {
	// Workers bounds per-round concurrency on the exec runtime: 0 runs
	// sequentially, negative uses one worker per CPU. May be changed
	// between rounds; the per-round seed stream does not depend on it.
	Workers int

	store   *block.Store
	cfg     core.Config
	overall core.Pilot
	plans   []*core.Plan // nil for an empty block
	shift   float64      // the plans' common negative-data translation
	accums  []*leverage.Accum
	drawn   []int64 // calculation samples per block so far
	rng     *stats.RNG
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
	accums := make([]*leverage.Accum, len(plans))
	for i, p := range plans {
		if p != nil {
			accums[i] = leverage.NewAccum(p.Bounds)
		}
	}
	return &Session{
		Workers: cfg.Workers,
		store:   s,
		cfg:     cfg,
		overall: overall,
		plans:   plans,
		shift:   shift,
		accums:  accums,
		drawn:   make([]int64, len(plans)),
		rng:     fp.RNG.RNG(),
	}, nil
}

// Rounds returns the number of completed refinement rounds.
func (s *Session) Rounds() int { return s.rounds }

// TotalSamples returns all calculation samples drawn so far.
func (s *Session) TotalSamples() int64 {
	var t int64
	for _, d := range s.drawn {
		t += d
	}
	return t
}

// Refine draws one more round of samples (fraction of each block's planned
// rate; 1 = a full Eq.-1 round) into the stored power sums and recomputes
// the answer. It returns the refined snapshot.
func (s *Session) Refine(fraction float64) (Snapshot, error) {
	return s.RefineContext(context.Background(), fraction)
}

// RefineContext is Refine with a cancellation context. A cancelled round
// leaves the session unusable for exact resumption (some accumulators may
// already hold the round's samples); callers wanting a consistent state
// should start a new session after cancellation. A round refuses, drawing
// nothing, once a scrub has quarantined any of the store's blocks.
func (s *Session) RefineContext(ctx context.Context, fraction float64) (Snapshot, error) {
	if fraction <= 0 {
		return Snapshot{}, errors.New("online: fraction must be positive")
	}
	if err := core.RefuseQuarantined(s.store); err != nil {
		return Snapshot{}, err
	}
	seeds := core.PlanSeeds(s.rng, s.plans)
	blocks := s.store.Blocks()
	perBlock, err := exec.Run(ctx, exec.Pool(s.Workers), len(blocks),
		func(_ context.Context, i int) (core.BlockResult, error) {
			b, p, acc := blocks[i], s.plans[i], s.accums[i]
			if p == nil {
				return core.BlockResult{BlockID: b.ID()}, nil
			}
			m := max(1, int64(fraction*p.Pilot.SampleRate*float64(b.Len())))
			// New samples merge into the SAME accumulator — the online mode's
			// whole point: paramS/paramL carry all prior rounds.
			err := block.SampleChunks(b, stats.NewRNG(seeds[i]), m, func(vs []float64) error {
				acc.AddShifted(vs, p.Shift)
				return nil
			})
			if err != nil {
				return core.BlockResult{}, fmt.Errorf("online: block %d: %w", b.ID(), err)
			}
			s.drawn[i] += m
			answer, detail, err := p.Resolve(acc)
			if err != nil {
				return core.BlockResult{}, fmt.Errorf("online: block %d: %w", b.ID(), err)
			}
			return core.BlockResult{
				BlockID: b.ID(),
				Len:     b.Len(),
				Samples: s.drawn[i],
				Answer:  answer,
				Detail:  detail,
			}, nil
		})
	if err != nil {
		return Snapshot{}, err
	}
	s.rounds++
	res := core.SummarizeBlocks(s.cfg, s.overall, s.shift, perBlock, s.store.TotalLen())

	// The effective precision reflects the accumulated sample mass.
	u, err := stats.ZValue(s.cfg.Confidence)
	if err != nil {
		return Snapshot{}, err
	}
	total := s.TotalSamples()
	eff := math.Inf(1)
	if total > 0 {
		eff = u * s.overall.Sigma / math.Sqrt(float64(total))
	}
	res.CI.HalfWidth = eff
	return Snapshot{Result: res, Round: s.rounds, EffectivePrecision: eff}, nil
}
