// Package online implements the paper's online-aggregation extension
// (§VII-A): after an initial answer is delivered, the user can ask for more
// precision and the system continues from the stored per-block paramS and
// paramL power sums — no sample is ever kept, and every refinement round
// merges new streaming sums into the old ones before re-running the
// iteration phase.
//
// Each round is one pass of the shared exec runtime: per-block seeds are
// derived up front, blocks refine concurrently (Session.Workers), and the
// per-round snapshot is assembled from the in-order result stream — the
// "per-round snapshot" sink strategy of the unified runtime.
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

	store  *block.Store
	plan   *core.Plan
	accums []*leverage.Accum
	drawn  []int64 // calculation samples per block so far
	rng    *stats.RNG
	rounds int
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
// it.
func NewSession(s *block.Store, cfg core.Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if s.TotalLen() == 0 {
		return nil, core.ErrEmptyStore
	}
	r := stats.NewRNG(cfg.Seed)
	plan, err := core.PlanIID(s, cfg, r)
	if err != nil {
		return nil, err
	}
	accums := make([]*leverage.Accum, s.NumBlocks())
	for i := range accums {
		accums[i] = leverage.NewAccum(plan.Bounds)
	}
	return &Session{
		Workers: cfg.Workers,
		store:   s,
		plan:    plan,
		accums:  accums,
		drawn:   make([]int64, s.NumBlocks()),
		rng:     r,
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

// Refine draws one more round of samples (fraction of the plan's base rate;
// 1 = a full Eq.-1 round) into the stored power sums and recomputes the
// answer. It returns the refined snapshot.
func (s *Session) Refine(fraction float64) (Snapshot, error) {
	return s.RefineContext(context.Background(), fraction)
}

// RefineContext is Refine with a cancellation context. A cancelled round
// leaves the session unusable for exact resumption (some accumulators may
// already hold the round's samples); callers wanting a consistent state
// should start a new session after cancellation.
func (s *Session) RefineContext(ctx context.Context, fraction float64) (Snapshot, error) {
	if fraction <= 0 {
		return Snapshot{}, errors.New("online: fraction must be positive")
	}
	blocks := s.store.Blocks()
	seeds := exec.Seeds(s.rng, len(blocks))
	perBlock, err := exec.Run(ctx, exec.Pool(s.Workers), len(blocks),
		func(_ context.Context, i int) (core.BlockResult, error) {
			b := blocks[i]
			acc := s.accums[i]
			if b.Len() > 0 {
				m := int64(fraction * s.plan.Pilot.SampleRate * float64(b.Len()))
				if m < 1 {
					m = 1
				}
				// New samples merge into the SAME accumulator — the online
				// mode's whole point: paramS/paramL carry all prior rounds.
				shift := s.plan.Shift
				r := stats.NewRNG(seeds[i])
				err := block.SampleChunks(b, r, m, func(vs []float64) error {
					acc.AddShifted(vs, shift)
					return nil
				})
				if err != nil {
					return core.BlockResult{}, fmt.Errorf("online: block %d: %w", b.ID(), err)
				}
				s.drawn[i] += m
			}
			answer, detail, err := s.plan.Resolve(acc)
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
	res := s.plan.Summarize(perBlock, s.store.TotalLen())

	// The effective precision reflects the accumulated sample mass.
	u, err := stats.ZValue(s.plan.Cfg.Confidence)
	if err != nil {
		return Snapshot{}, err
	}
	total := s.TotalSamples()
	eff := math.Inf(1)
	if total > 0 {
		eff = u * s.plan.Pilot.Sigma / math.Sqrt(float64(total))
	}
	res.CI.HalfWidth = eff
	return Snapshot{Result: res, Round: s.rounds, EffectivePrecision: eff}, nil
}
