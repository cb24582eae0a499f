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

// pilotFloor is the fewest draws the per-block pilot probes a block with
// (the whole block when it is shorter): a 1 % probe of a small block leaves
// its σ and sketch0 too noisy for the precision guarantee, which
// TestCICoverage pins on 8 000-row blocks.
const pilotFloor = 400

// FreezePilot runs the per-block pre-estimation from cfg.Seed over src and
// captures the post-pilot generator state for later EstimateFrozen calls:
// a probe inside every block gives the per-block statistics, the pooled
// probes give the overall sampling rate (Eq. 1 with the pooled σ). A probe
// draws 1 % of its block, at least pilotFloor, or cfg.PilotSize when set —
// capped at the block's length either way.
//
// Blocks the source reports down are refused up front under the policy
// EstimateFrozen applies (a *QuarantinedError unless cfg.AllowPartial), so
// a refused query samples nothing.
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
	down := src.Down()
	if err := quarantineGate(src, down, cfg.AllowPartial); err != nil {
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

	sc := phasePool.Get().(*phaseScratch)
	defer phasePool.Put(sc)
	reqs := sc.moments[:0]
	ends := sc.ends[:0] // predicted state after each probe
	for i, blen := range lens {
		// A down block's zero pilot plans it out entirely (degraded answers
		// stay sound but carry no bit-identity claim on this sampled path;
		// the summary pilot above preserves identity, since footers stay
		// trusted).
		if blen == 0 || (down != nil && down[i]) {
			continue
		}
		probe := max(blen/100, pilotFloor)
		if cfg.PilotSize > 0 {
			probe = cfg.PilotSize
		}
		probe = min(probe, blen)
		reqs = append(reqs, MomentsReq{Block: i, Draws: probe, Start: r.State()})
		r.SkipInt63n(probe, blen)
		ends = append(ends, r.State())
	}
	sc.moments, sc.ends = reqs, ends
	reps, err := sc.runMoments(ctx, src, reqs, nil)
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
	overall, err := newPilot(all.Mean(), all.SampleStdDev(), all.Min, all.Max, 0, cfg, total)
	return pilots, overall, err == nil, err
}

// Plans re-derives the frozen pre-estimation for one query's configuration:
// the pooled pilot at cfg's precision (RederivePilot), one plan per
// non-empty block (PlansFromPilots; nil for an empty one) and the plans'
// common negative-data shift. It consumes no randomness.
func (fp FrozenPilot) Plans(cfg Config, totalLen int64) (overall Pilot, plans []*Plan, shift float64, err error) {
	return fp.plansInto(make([]Plan, len(fp.Pilots)), make([]*Plan, len(fp.Pilots)), cfg, totalLen)
}

// plansInto is Plans deriving into dst and plans (derivePlans).
func (fp FrozenPilot) plansInto(dst []Plan, plans []*Plan, cfg Config, totalLen int64) (overall Pilot, _ []*Plan, shift float64, err error) {
	if overall, err = RederivePilot(fp.Base, cfg, totalLen); err != nil {
		return Pilot{}, nil, 0, err
	}
	if err = derivePlans(dst, plans, fp.Pilots, overall, cfg, totalLen); err != nil {
		return Pilot{}, nil, 0, err
	}
	for _, p := range plans {
		if p != nil {
			shift = p.Shift
		}
	}
	return overall, plans, shift, nil
}

// PlanSeeds draws one calculation seed per planned block from r, in block
// order (0 for an empty block) — the stream EstimateFrozen draws once from
// the frozen generator, and an online session once per round.
func PlanSeeds(r *stats.RNG, plans []*Plan) []uint64 {
	return planSeeds(make([]uint64, len(plans)), r, plans)
}

// planSeeds is PlanSeeds drawing into seeds, len(plans) long.
func planSeeds(seeds []uint64, r *stats.RNG, plans []*Plan) []uint64 {
	for i, p := range plans {
		seeds[i] = 0
		if p != nil {
			seeds[i] = r.Uint64()
		}
	}
	return seeds
}

// EstimateFrozen runs the calculation phase from a frozen pre-estimation
// over src: the sampling plan is re-derived for cfg's precision target,
// per-block seeds are drawn from the frozen RNG state, and all planned
// blocks travel to the source as one phase, each with its plan's draws and
// no Prior (only an online session's later rounds carry one). For the seed
// that froze the pilot the answer is bit-identical to a cold run
// (Estimate) — the pilot phase is simply skipped.
//
// A block that cannot answer — down before the phase, or reported lost by
// the source — keeps its plan and its place in the seed stream but
// contributes nothing, so the surviving blocks' draws, and hence their
// partial answers, are bit-identical to the healthy run whenever the plans
// themselves did not depend on the missing data (summary pilots, frozen
// pilots). The result then carries the Partial accounting. Down blocks
// refuse with a *QuarantinedError unless cfg.AllowPartial; a run in which no
// block answered fails with a *BlocksLostError.
//
// The answer is O(1): the per-block partials it folds live in the pooled
// phase scratch. A caller that studies them passes blocks, one entry per
// block of the layout, and gets them there, index-aligned with the layout —
// an empty or missing block's entry naming only its id; nil keeps nothing.
// Either way the answer has the same bits.
func EstimateFrozen(ctx context.Context, src BlockSource, cfg Config, fp FrozenPilot, blocks []BlockResult) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	total := src.TotalLen()
	if total == 0 {
		return Result{}, ErrEmptyStore
	}
	lost := slices.Clone(src.Down()) // in-flight losses are added below
	if err := quarantineGate(src, lost, cfg.AllowPartial); err != nil {
		return Result{}, err
	}
	ids, lens := src.Layout()
	if len(fp.Pilots) != len(ids) {
		return Result{}, fmt.Errorf("core: frozen pilot covers %d blocks, source has %d — frozen from a different layout?",
			len(fp.Pilots), len(ids))
	}
	if blocks != nil && len(blocks) != len(ids) {
		return Result{}, fmt.Errorf("core: per-block destination holds %d entries, source has %d blocks", len(blocks), len(ids))
	}
	sc := phasePool.Get().(*phaseScratch)
	defer phasePool.Put(sc)
	sc.plans, sc.planPtrs = resize(sc.plans, len(ids)), resize(sc.planPtrs, len(ids))
	overall, plans, shift, err := fp.plansInto(sc.plans, sc.planPtrs, cfg, total)
	if err != nil {
		return Result{}, err
	}
	seeds := planSeeds(resize(sc.seeds, len(plans)), fp.RNG.RNG(), plans)
	sc.seeds = seeds
	reqs := sc.calc[:0]
	perBlock := blocks
	if perBlock == nil {
		sc.perBlock = resize(sc.perBlock, len(plans))
		perBlock = sc.perBlock
	}
	clear(perBlock)
	for i, p := range plans {
		perBlock[i].BlockID = ids[i]
		if p != nil && (lost == nil || !lost[i]) {
			reqs = append(reqs, CalcReq{Block: i, Plan: p, Seed: seeds[i], Draws: p.SampleSize(lens[i])})
		}
	}
	sc.calc = reqs
	reps, err := sc.runCalc(ctx, src, reqs)
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
