// Package timebound implements the paper's time-constraint extension
// (§VII-F): instead of a precision target, the user sets a wall-clock
// budget. The system measures the workload's sampling throughput with a
// short calibration burst, freezes the pilot, converts the remaining budget
// into an affordable sample size (at most the pilot's own draws, whose error
// the answer carries), derives the precision that size buys (Eq. 1
// inverted), and runs the standard pipeline with that precision — returning
// the answer together with the achieved precision assurance.
//
// The calculation phase is the store source's own, run under a context
// deadline at the hard cutoff: if the cutoff fires before every block
// resolved, the completed in-order prefix of blocks is merged into a
// best-effort answer and the result is marked Truncated.
package timebound

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/stats"
)

// Result augments the core result with the budget accounting.
type Result struct {
	core.Result
	// Budget is the wall-clock budget requested.
	Budget time.Duration
	// Elapsed is the total time actually spent (calibration + pilot + run).
	Elapsed time.Duration
	// AchievedPrecision is the e implied by the affordable sample size —
	// never more than the pilot drew — at the frozen pilot's σ.
	AchievedPrecision float64
	// SamplesPerSecond is the calibrated throughput (0 under FixedSamples).
	SamplesPerSecond float64
	// Truncated reports that the hard cutoff fired before every block
	// resolved; the answer then covers only CoveredBlocks blocks and the
	// population they hold.
	Truncated bool
	// CoveredBlocks is the number of blocks merged into the answer.
	CoveredBlocks int
}

// The calibration policy: a tenth of the budget measures the sampling
// throughput, which is discounted by headroom to leave room for the
// iteration phase and jitter; the main run never affords fewer than
// minSamples draws, so tiny budgets still return something meaningful; and
// the hard wall-clock cutoff fires at cutoffFactor × budget (the budget is
// advisory — the first block always completes, so a best-effort answer
// exists).
const (
	calibrationFraction = 0.1
	minSamples          = 100
	headroom            = 0.8
	cutoffFactor        = 10
)

// Options makes a run deterministic or resumes a cached pre-estimation.
type Options struct {
	// FixedSamples, when positive, replaces the timed calibration burst:
	// nothing is calibrated (SamplesPerSecond stays 0) and the affordable
	// sample size is FixedSamples (still capped by the pilot), so the
	// sampling plan is a function of Config.Seed alone. The hard wall-clock
	// cutoff still applies: a run that must cover every block gives itself a
	// budget it cannot overrun tenfold. Intended for reproducible benchmarks,
	// the scalar/batch equivalence tests, and cutoff tests that need a quota
	// the clock cannot shrink.
	FixedSamples int64
	// Freeze, when non-nil, supplies the frozen pre-estimation for
	// Config.Seed in place of the one frozen here — typically a plan-cache
	// lookup that freezes on a miss. It runs on the budget's clock, and a
	// pilot it returns answers with the bits of the same pilot frozen here.
	Freeze func(context.Context) (core.FrozenPilot, error)
}

// affordable is the sample size the remaining budget buys at the calibrated
// throughput (samples per second), under the policy above.
func affordable(throughput float64, remaining time.Duration) int64 {
	return max(minSamples, int64(throughput*headroom*remaining.Seconds()))
}

// Estimate runs ISLA under a wall-clock budget. cfg.Precision is ignored
// (derived from the budget); every other knob applies. Cancelling ctx aborts
// the run.
func Estimate(ctx context.Context, s *block.Store, cfg core.Config, budget time.Duration, opts Options) (Result, error) {
	if budget <= 0 {
		return Result{}, errors.New("timebound: budget must be positive")
	}
	if s.TotalLen() == 0 {
		return Result{}, core.ErrEmptyStore
	}
	// A time-bounded run never degrades: budget truncation and quarantine
	// would compound into coverage no CI can describe, so a damaged store is
	// refused outright — even when cfg.AllowPartial is set.
	if err := core.RefuseQuarantined(s); err != nil {
		return Result{}, err
	}
	// cfg.Precision is derived below; until then any positive value serves,
	// since the pilot's draws do not depend on it.
	if cfg.Precision <= 0 {
		cfg.Precision = 1
	}
	// The clock starts before anything is drawn: calibration and the pilot —
	// frozen here or by the caller's Freeze, cache lookup included — spend
	// the budget like the calculation phase does.
	start := time.Now()
	var throughput float64
	if opts.FixedSamples <= 0 {
		var err error
		if throughput, err = calibrate(s, time.Duration(float64(budget)*calibrationFraction)); err != nil {
			return Result{}, err
		}
	}

	// The one unfiltered pipeline — the pilot from the caller's Freeze or one
	// frozen here, resumed at the derived precision — behind the
	// budget's hard cutoff.
	src := budgeted{BlockSource: core.LocalExecutor{S: s}.Source(cfg),
		cutoff: start.Add(time.Duration(float64(budget) * cutoffFactor))}
	freeze := opts.Freeze
	if freeze == nil {
		freeze = func(ctx context.Context) (core.FrozenPilot, error) { return core.FreezePilot(ctx, src, cfg) }
	}
	fp, err := freeze(ctx)
	if err != nil {
		return Result{}, err
	}

	// Affordable sample size for what is left of the budget (pinned under
	// FixedSamples so the derived precision is reproducible). The answer
	// carries the pilot's own sampling error — its sketch0 centres the
	// modulation boundaries — so no budget buys a finer precision than the
	// pilot's draws support: the size is capped at them. A summary pilot is
	// exact (zero draws) and caps nothing.
	afford := opts.FixedSamples
	if afford <= 0 {
		afford = affordable(throughput, budget-time.Since(start))
	}
	afford = min(afford, s.TotalLen())
	if n := fp.Base.PilotSize; n > 0 {
		afford = min(afford, n)
	}

	// Invert Eq. 1 at the frozen σ: the precision this sample size buys,
	// whose plan then draws that many samples. Constant data (σ = 0) keeps
	// whatever precision it came with.
	u, err := stats.ZValue(cfg.Confidence)
	if err != nil {
		return Result{}, err
	}
	if e := u * fp.Base.Sigma / math.Sqrt(float64(afford)); e > 0 {
		cfg.Precision = e
	}
	res, err := core.EstimateFrozen(ctx, src, cfg, fp)
	if err != nil {
		return Result{}, err
	}
	// The blocks the cutoff left unresolved came back lost: the answer
	// covers the resolved prefix and the population it holds.
	truncated, covered := res.Partial != nil, len(res.PerBlock)
	if truncated {
		covered -= len(res.Partial.MissingBlocks)
		res.Partial = nil
	}
	return Result{
		Result:            res,
		Budget:            budget,
		Elapsed:           time.Since(start),
		AchievedPrecision: cfg.Precision,
		SamplesPerSecond:  throughput,
		Truncated:         truncated,
		CoveredBlocks:     covered,
	}, nil
}

// calibrate times batched sample bursts over s for duration d and returns
// the throughput in samples per second. The draws are discarded — only
// their count matters — so the generator is a fixed one, not the query's.
func calibrate(s *block.Store, d time.Duration) (float64, error) {
	const burst = 1024
	r := stats.NewRNG(0)
	discard := func([]float64) error { return nil }
	start := time.Now()
	var n int64
	for time.Since(start) < d {
		if err := s.PilotSampleChunks(r, burst, discard); err != nil {
			return 0, fmt.Errorf("timebound: calibration: %w", err)
		}
		n += burst
	}
	elapsed := time.Since(start)
	if n == 0 || elapsed <= 0 {
		return 0, errors.New("timebound: calibration produced no samples")
	}
	return float64(n) / elapsed.Seconds(), nil
}

// budgeted is a store's block source whose calculation phase runs behind the
// hard wall-clock cutoff. The first block resolves under the caller's
// context alone, so a best-effort answer always exists; the rest run under a
// deadline at the cutoff, and the blocks it leaves unresolved come back Lost
// — the store source returns the resolved in-order prefix beside its error —
// so EstimateFrozen merges that prefix over the rows it holds. Any other
// failure, the caller's own context ending included, fails the run.
type budgeted struct {
	core.BlockSource
	cutoff time.Time
}

func (b budgeted) Calc(ctx context.Context, reqs []core.CalcReq) ([]core.CalcRep, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	reps, err := b.BlockSource.Calc(ctx, reqs[:1])
	if err != nil {
		return nil, err
	}
	cut, cancel := context.WithDeadline(ctx, b.cutoff)
	defer cancel()
	rest, err := b.BlockSource.Calc(cut, reqs[1:])
	if err != nil && (ctx.Err() != nil || time.Now().Before(b.cutoff) || !errors.Is(err, context.DeadlineExceeded)) {
		return nil, err
	}
	reps = append(reps, rest...)
	for len(reps) < len(reqs) {
		reps = append(reps, core.CalcRep{Lost: true})
	}
	return reps, nil
}
