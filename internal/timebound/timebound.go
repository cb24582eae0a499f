// Package timebound implements the paper's time-constraint extension
// (§VII-F): instead of a precision target, the user sets a wall-clock
// budget. The system measures the workload's sampling throughput with a
// short calibration burst, converts the remaining budget into an affordable
// sample size, derives the precision that size buys (Eq. 1 inverted), and
// runs the standard pipeline with that precision — returning the answer
// together with the achieved precision assurance.
//
// The calculation phase runs on the shared exec runtime with a wall-clock
// budget sink: if the hard cutoff fires before every block resolved, the
// completed in-order prefix of blocks is merged into a best-effort answer
// and the result is marked Truncated.
package timebound

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/exec"
	"isla/internal/stats"
)

// Result augments the core result with the budget accounting.
type Result struct {
	core.Result
	// Budget is the wall-clock budget requested.
	Budget time.Duration
	// Elapsed is the total time actually spent (calibration + run).
	Elapsed time.Duration
	// AchievedPrecision is the e implied by the affordable sample size.
	AchievedPrecision float64
	// SamplesPerSecond is the calibrated throughput.
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
	// exactly FixedSamples calibration samples are drawn, the affordable
	// sample size is FixedSamples as well, and the hard wall-clock cutoff
	// is disabled, making the whole run deterministic for a given
	// Config.Seed (no wall-clock feedback into the sampling plan or the
	// block coverage). Intended for reproducible benchmarks and the
	// scalar/batch equivalence tests.
	FixedSamples int64
	// Frozen, when non-nil, supplies a frozen per-block pre-estimation
	// (typically from a plan cache): after the calibration burst derives
	// the affordable precision, the run skips its own pilot and executes
	// the calculation phase from the frozen state via EstimateFrozen.
	// Like the PerBlockBounds path, this mode does not apply the
	// best-effort wall-clock truncation.
	Frozen *core.FrozenPilot
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
	if ids := s.QuarantinedIDs(); len(ids) > 0 {
		return Result{}, &core.QuarantinedError{
			Blocks: ids, CoveredRows: s.CoveredLen(), TotalRows: s.TotalLen()}
	}
	start := time.Now()

	// Calibration burst: draw batched sample bursts for a slice of the
	// budget and count. With FixedSamples the burst size — and therefore
	// the downstream sampling plan — is independent of wall-clock timing.
	calBudget := time.Duration(float64(budget) * calibrationFraction)
	r := stats.NewRNG(cfg.Seed)
	var calMoments stats.Moments
	var calSamples int64
	fold := block.MomentsSink(&calMoments)
	const burst = 1024
	if opts.FixedSamples > 0 {
		if err := s.PilotSampleChunks(r, opts.FixedSamples, fold); err != nil {
			return Result{}, fmt.Errorf("timebound: calibration: %w", err)
		}
		calSamples = opts.FixedSamples
	} else {
		for time.Since(start) < calBudget {
			if err := s.PilotSampleChunks(r, burst, fold); err != nil {
				return Result{}, fmt.Errorf("timebound: calibration: %w", err)
			}
			calSamples += burst
		}
	}
	calElapsed := time.Since(start)
	if calSamples == 0 || calElapsed <= 0 {
		return Result{}, errors.New("timebound: calibration produced no samples")
	}
	throughput := float64(calSamples) / calElapsed.Seconds()

	// Affordable sample size for the remaining budget (pinned under
	// FixedSamples so the derived precision is reproducible).
	afford := opts.FixedSamples
	if afford <= 0 {
		afford = affordable(throughput, budget-calElapsed)
	}
	if afford > s.TotalLen() {
		afford = s.TotalLen()
	}

	// Invert Eq. 1: the precision this sample size buys.
	sigma := calMoments.SampleStdDev()
	u, err := stats.ZValue(cfg.Confidence)
	if err != nil {
		return Result{}, err
	}
	e := u * sigma / math.Sqrt(float64(afford))
	if e <= 0 || math.IsNaN(e) {
		e = cfg.Precision
		if e <= 0 {
			e = 1
		}
	}
	cfg.Precision = e
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}

	// A frozen pre-estimation (plan-cache hit) skips the pilot entirely:
	// the calculation phase runs from the cached per-block state at the
	// derived precision, without best-effort truncation.
	if opts.Frozen != nil {
		res, err := core.LocalExecutor{S: s}.EstimateFrozen(ctx, cfg, *opts.Frozen)
		if err != nil {
			return Result{}, err
		}
		return Result{
			Result:            res,
			Budget:            budget,
			Elapsed:           time.Since(start),
			AchievedPrecision: e,
			SamplesPerSecond:  throughput,
			CoveredBlocks:     len(res.PerBlock),
		}, nil
	}

	// The non-i.i.d. pipeline keeps its per-block pilots and geometry; it
	// runs on the shared runtime via core, without best-effort truncation.
	if cfg.PerBlockBounds {
		res, err := core.Estimate(ctx, s, cfg)
		if err != nil {
			return Result{}, err
		}
		return Result{
			Result:            res,
			Budget:            budget,
			Elapsed:           time.Since(start),
			AchievedPrecision: e,
			SamplesPerSecond:  throughput,
			CoveredBlocks:     len(res.PerBlock),
		}, nil
	}

	// The standard pipeline, on the shared runtime, behind a budget sink.
	// The same RNG discipline as core.Estimate, so an untruncated run is
	// bit-identical to core.Estimate at the derived precision. Under
	// FixedSamples the cutoff sink is dropped too — otherwise a slow
	// machine could truncate what the option promises is a deterministic
	// function of the seed.
	rr := stats.NewRNG(cfg.Seed)
	plan, err := core.PlanIID(s, cfg, rr)
	if err != nil {
		return Result{}, err
	}
	blocks := s.Blocks()
	seeds := exec.Seeds(rr, len(blocks))
	var sinks []exec.Sink[core.BlockResult]
	if opts.FixedSamples <= 0 {
		cutoff := start.Add(time.Duration(float64(budget) * cutoffFactor))
		sinks = append(sinks, exec.Budget[core.BlockResult](cutoff, 1))
	}
	perBlock, err := exec.Run(ctx, exec.Pool(cfg.Workers), len(blocks),
		func(ctx context.Context, i int) (core.BlockResult, error) {
			br, err := plan.RunBlock(ctx, blocks[i], stats.NewRNG(seeds[i]))
			if err != nil {
				return core.BlockResult{}, fmt.Errorf("timebound: block %d: %w", blocks[i].ID(), err)
			}
			return br, nil
		}, sinks...)
	truncated := false
	if errors.Is(err, exec.ErrBudgetExceeded) && len(perBlock) > 0 {
		truncated = true
	} else if err != nil {
		return Result{}, err
	}

	// Merge whatever resolved: the full store on the normal path, the
	// covered prefix (and its population) when the cutoff fired.
	covered := s.TotalLen()
	if truncated {
		covered = 0
		for _, br := range perBlock {
			covered += br.Len
		}
	}
	res := plan.Summarize(perBlock, covered)
	return Result{
		Result:            res,
		Budget:            budget,
		Elapsed:           time.Since(start),
		AchievedPrecision: e,
		SamplesPerSecond:  throughput,
		Truncated:         truncated,
		CoveredBlocks:     len(perBlock),
	}, nil
}
