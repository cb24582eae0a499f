package core

import (
	"context"
	"fmt"
	"slices"

	"isla/internal/block"
	"isla/internal/stats"
)

// FrozenPilot is a table's pre-estimation state frozen for reuse across
// queries: the per-block pilot statistics, the pooled pilot, and the RNG
// state left after the pilot consumed its draws. The per-block pilot
// samples an amount that depends only on block sizes — never on the
// precision target — so one frozen pilot serves any precision/confidence
// combination on the same table and seed; only the O(1)-per-block
// statistics are retained (§VII).
type FrozenPilot struct {
	Pilots []BlockPilot
	// Base carries the pooled statistics (σ, sketch0, min/max, pilot
	// size). Its precision-dependent fields (SampleRate, SampleSize,
	// RelaxedE) reflect whichever query froze the pilot; RederivePilot
	// recomputes them per query.
	Base Pilot
	// RNG is the generator state after the pilot's draws: resuming it
	// yields the exact stream a cold run would use for per-block seed
	// derivation.
	RNG stats.RNGState
}

// FreezePilot runs the per-block pre-estimation from cfg.Seed over src and
// captures the post-pilot generator state for later EstimateFrozen calls:
// a probe inside every block gives the per-block statistics, the pooled
// probes give the overall sampling rate (Eq. 1 with the pooled σ).
//
// With cfg.SummaryPilot set and every block carrying a persisted summary,
// both come from the summaries instead: exact, zero samples, no RNG
// consumption. Otherwise the probes thread one RNG through the blocks (each
// block's draws start where the previous block's ended), but how far a
// probe advances it depends only on (block length, draw count), never on
// the data: the master generator is skipped over each probe here, so every
// start state is known up front, the pilot is one phase the source may run
// in parallel, and each reply's end state and block length are checked
// against the prediction.
func FreezePilot(ctx context.Context, src BlockSource, cfg Config) (FrozenPilot, error) {
	if err := cfg.Validate(); err != nil {
		return FrozenPilot{}, err
	}
	total := src.TotalLen()
	if total == 0 {
		return FrozenPilot{}, ErrEmptyStore
	}
	ids, lens := src.Layout()
	r := stats.NewRNG(cfg.Seed)
	if cfg.SummaryPilot {
		if pilots, overall, ok, err := summaryPilots(src, cfg, lens, total); err != nil {
			return FrozenPilot{}, err
		} else if ok {
			return FrozenPilot{Pilots: pilots, Base: overall, RNG: r.State()}, nil
		}
	}

	down := src.Down()
	reqs := make([]PilotReq, 0, len(lens))
	ends := make([]stats.RNGState, 0, len(lens)) // predicted state after each probe
	for i, blen := range lens {
		// A down block's zero pilot plans it out entirely (degraded answers
		// stay sound but carry no bit-identity claim on this sampled path;
		// the summary pilot above preserves identity, since footers stay
		// trusted).
		if blen == 0 || (down != nil && down[i]) {
			continue
		}
		// Probe each block with a size proportional to the block, bounded
		// below so small blocks still get a variance estimate.
		probe := blen / 100
		if probe < 200 {
			probe = 200
		}
		if probe > blen {
			probe = blen
		}
		reqs = append(reqs, PilotReq{Block: i, Size: probe, Start: r.State()})
		r.SkipInt63n(probe, blen)
		ends = append(ends, r.State())
	}
	reps, err := src.Pilot(ctx, reqs)
	if err != nil {
		return FrozenPilot{}, fmt.Errorf("core: pilot: %w", err)
	}
	pilots := make([]BlockPilot, len(lens))
	var pooled stats.Moments
	for k, rep := range reps {
		i := reqs[k].Block
		if rep.Len != lens[i] || rep.End != ends[k] {
			return FrozenPilot{}, &PilotStreamError{BlockID: ids[i], Len: rep.Len, WantLen: lens[i]}
		}
		pilots[i] = BlockPilot{Sketch0: rep.M.Mean(), Sigma: rep.M.SampleStdDev(), Len: rep.Len}
		pooled.Merge(rep.M)
	}
	overall, err := newPilot(pooled.Mean(), pooled.SampleStdDev(), pooled.Min(), pooled.Max(), pooled.Count(), cfg, total)
	if err != nil {
		return FrozenPilot{}, err
	}
	return FrozenPilot{Pilots: pilots, Base: overall, RNG: r.State()}, nil
}

// summaryPilots builds the per-block and pooled pilot statistics from the
// source's persisted summaries. ok is false when any non-empty block lacks
// one — FreezePilot then samples.
func summaryPilots(src BlockSource, cfg Config, lens []int64, total int64) ([]BlockPilot, Pilot, bool, error) {
	pilots := make([]BlockPilot, len(lens))
	var all block.Summary
	for i, blen := range lens {
		sum, ok := src.Summary(i)
		if !ok {
			if blen == 0 {
				continue // an empty block contributes nothing either way
			}
			return nil, Pilot{}, false, nil
		}
		all.Merge(sum)
		if blen > 0 {
			pilots[i] = BlockPilot{Sketch0: sum.Mean(), Sigma: sum.SampleStdDev(), Len: blen}
		}
	}
	if all.Count == 0 {
		return nil, Pilot{}, false, nil
	}
	overall, err := pilotFromSummary(all, cfg, total)
	return pilots, overall, err == nil, err
}

// EstimateFrozen runs the calculation phase from a frozen pre-estimation
// over src: the sampling plan is re-derived for cfg's precision target,
// per-block seeds are drawn from the frozen RNG state, and all planned
// blocks travel to the source as one phase. For the seed that froze the
// pilot the answer is bit-identical to a cold per-block run
// (EstimateContext with PerBlockBounds set) — the pilot phase is simply
// skipped.
//
// A block that cannot answer — down before the phase, or reported lost by
// the source — keeps its plan and its place in the seed stream but
// contributes nothing, so the surviving blocks' draws, and hence their
// partial answers, are bit-identical to the healthy run whenever the plans
// themselves did not depend on the missing data (summary pilots, frozen
// pilots). The result then carries the Partial accounting; PerBlock stays
// index-aligned with the layout, a missing block's entry naming only its id.
// Down blocks refuse with a *QuarantinedError unless cfg.AllowPartial; a
// run in which no block answered fails with a *BlocksLostError.
func EstimateFrozen(ctx context.Context, src BlockSource, cfg Config, fp FrozenPilot) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	total := src.TotalLen()
	if total == 0 {
		return Result{}, ErrEmptyStore
	}
	lost := slices.Clone(src.Down()) // in-flight losses are added below
	if _, err := quarantineGate(src, lost, cfg); err != nil {
		return Result{}, err
	}
	ids, _ := src.Layout()
	if len(fp.Pilots) != len(ids) {
		return Result{}, fmt.Errorf("core: frozen pilot covers %d blocks, source has %d — frozen from a different layout?",
			len(fp.Pilots), len(ids))
	}
	overall, err := RederivePilot(fp.Base, cfg, total)
	if err != nil {
		return Result{}, err
	}
	plans, err := PlansFromPilots(fp.Pilots, overall, cfg, total)
	if err != nil {
		return Result{}, err
	}
	// Seeds are consumed for planned blocks only, in block order — the same
	// stream a sequential loop over the non-empty blocks would draw.
	r := fp.RNG.RNG()
	reqs := make([]CalcReq, 0, len(plans))
	perBlock := make([]BlockResult, len(plans))
	var shift float64
	for i, p := range plans {
		perBlock[i].BlockID = ids[i]
		if p == nil {
			continue
		}
		seed := r.Uint64()
		shift = p.Shift
		if lost == nil || !lost[i] {
			reqs = append(reqs, CalcReq{Block: i, Plan: p, Seed: seed})
		}
	}
	reps, err := src.Calc(ctx, reqs)
	if err != nil {
		return Result{}, err
	}
	for k, rep := range reps {
		i := reqs[k].Block
		if rep.Lost {
			if lost == nil {
				lost = make([]bool, len(plans))
			}
			lost[i] = true
			continue
		}
		perBlock[i] = rep.Result
	}
	part := lossOf(src, lost)
	covered := total
	if part != nil {
		if covered = part.CoveredRows; covered == 0 {
			return Result{}, &BlocksLostError{Blocks: part.MissingBlocks}
		}
	}
	res := SummarizeBlocks(cfg, overall, shift, perBlock, covered)
	res.Partial = part
	return res, nil
}
