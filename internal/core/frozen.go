package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"isla/internal/block"
	"isla/internal/leverage"
	"isla/internal/stats"
)

// FrozenPilot is a table's pre-estimation state frozen for reuse across
// queries: the per-block pilot statistics, the pooled pilot, and the master
// RNG's state after the pilot took its seeds. The per-block pilot
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
	// RNG is the master generator's state after the pilot took its
	// per-block seeds: resuming it yields the exact stream a cold run would
	// use for the calculation's seeds.
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
// consumption. Otherwise the probes are one phase of moments requests
// (momentsPhase): each probed block takes one seed off the master stream, in
// block order, so every probe is independent of the others and the source
// may run them in parallel.
func FreezePilot(ctx context.Context, src BlockSource, cfg Config) (FrozenPilot, error) {
	if err := cfg.Validate(); err != nil {
		return FrozenPilot{}, err
	}
	_, lens, total, down, err := openSource(src, cfg.AllowPartial)
	if err != nil {
		return FrozenPilot{}, err
	}
	r := stats.NewRNG(cfg.Seed)
	if cfg.SummaryPilot {
		if pilots, overall, ok, err := summaryPilots(src, cfg, lens, total); err != nil {
			return FrozenPilot{}, err
		} else if ok {
			return FrozenPilot{Pilots: pilots, Base: overall, RNG: r.State()}, nil
		}
	}

	counts := make([]int64, len(lens))
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
		counts[i] = min(probe, blen)
	}
	sc := phasePool.Get().(*phaseScratch)
	defer phasePool.Put(sc)
	reqs, reps, err := sc.momentsPhase(ctx, src, nil, r, counts, nil)
	if err != nil {
		return FrozenPilot{}, fmt.Errorf("core: pilot: %w", err)
	}
	pilots := make([]BlockPilot, len(lens))
	var pooled stats.Moments
	for k, rep := range reps {
		pilots[reqs[k].Block] = BlockPilot{Sketch0: rep.M.Mean(), Sigma: rep.M.SampleStdDev(), Len: rep.Len, Draws: rep.M.Count()}
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
// one, or when a block's or the table's power sums no longer hold its
// variance (block.Summary.VarianceHeld) — FreezePilot then samples.
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
		if !sum.VarianceHeld() {
			return nil, Pilot{}, false, nil
		}
		all.Merge(sum)
		if blen > 0 {
			pilots[i] = BlockPilot{Sketch0: sum.Mean(), Sigma: sum.SampleStdDev(), Len: blen}
		}
	}
	if all.Count == 0 || !all.VarianceHeld() {
		return nil, Pilot{}, false, nil
	}
	overall, err := newPilot(all.Mean(), all.SampleStdDev(), all.Min, all.Max, 0, cfg, total)
	return pilots, overall, err == nil, err
}

// plansInto re-derives the frozen pre-estimation for one query's
// configuration into dst and plans (derivePlans): the pooled pilot at cfg's
// precision (RederivePilot), one plan per non-empty block (nil for an empty
// one) and the plans' common negative-data shift. It consumes no randomness.
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
	if err := checkFrozen(src, cfg, fp); err != nil {
		return Result{}, err
	}
	lost := slices.Clone(src.Down()) // in-flight losses are added by the round
	if err := quarantineGate(src, lost, cfg.AllowPartial); err != nil {
		return Result{}, err
	}
	n := len(fp.Pilots)
	if blocks != nil && len(blocks) != n {
		return Result{}, fmt.Errorf("core: per-block destination holds %d entries, source has %d blocks", len(blocks), n)
	}
	total := src.TotalLen()
	sc := phasePool.Get().(*phaseScratch)
	defer phasePool.Put(sc)
	sc.plans, sc.planPtrs = resize(sc.plans, n), resize(sc.planPtrs, n)
	overall, plans, shift, err := fp.plansInto(sc.plans, sc.planPtrs, cfg, total)
	if err != nil {
		return Result{}, err
	}
	perBlock := blocks
	if perBlock == nil {
		sc.perBlock = resize(sc.perBlock, n)
		perBlock = sc.perBlock
	}
	if lost, err = sc.round(ctx, src, plans, fp.RNG.RNG(), 1, nil, lost, perBlock); err != nil {
		return Result{}, err
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

// checkFrozen is what every run from a frozen pilot checks first: cfg is
// valid, src holds rows, and fp was frozen from src's layout.
func checkFrozen(src BlockSource, cfg Config, fp FrozenPilot) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if src.TotalLen() == 0 {
		return ErrEmptyStore
	}
	if ids, _ := src.Layout(); len(fp.Pilots) != len(ids) {
		return fmt.Errorf("core: frozen pilot covers %d blocks, source has %d — frozen from a different layout?",
			len(fp.Pilots), len(ids))
	}
	return nil
}

// round is one calculation round over src, the one a query runs once and an
// online session once per Refine. It draws one seed per planned block off r,
// in block order — a block flagged in lost keeps its place in that stream —
// and sends every other planned block one request of fraction·rate·len draws
// (at least one) from a fresh RNG(seed), carrying sums[i] as its Prior when
// sums is non-nil. The phase runs in sc. perBlock, one entry per block of
// the layout, receives each answering block's partial, an empty or
// unanswered block's entry naming only its id, and sums, when non-nil, each
// answering block's new sums. The returned flags are lost with the blocks
// the source reported lost in flight added (allocated when lost is nil and a
// block was lost).
func (sc *phaseScratch) round(ctx context.Context, src BlockSource, plans []*Plan, r *stats.RNG, fraction float64,
	sums []*leverage.Accum, lost []bool, perBlock []BlockResult) ([]bool, error) {
	ids, lens := src.Layout()
	reqs := sc.reqs[:0]
	clear(perBlock)
	for i, p := range plans {
		perBlock[i].BlockID = ids[i]
		if p == nil {
			continue
		}
		seed := r.Uint64()
		if lost != nil && lost[i] {
			continue
		}
		m := fraction * p.Pilot.SampleRate * float64(lens[i])
		if m >= math.MaxInt64 { // 2^63 as a float64: the conversion below would saturate
			return nil, fmt.Errorf("core: fraction %v asks block %d for %.3g draws", fraction, ids[i], m)
		}
		var prior *leverage.Accum
		if sums != nil {
			prior = sums[i]
		}
		reqs = append(reqs, p.request(i, max(1, int64(m)), stats.NewRNG(seed).State(), prior))
	}
	sc.reqs = reqs
	reps, err := sc.run(ctx, src, reqs, nil)
	if err != nil {
		return nil, err
	}
	for k := range reps {
		i := reqs[k].Block
		if reps[k].Lost {
			if lost == nil {
				lost = make([]bool, len(plans))
			}
			lost[i] = true
			continue
		}
		perBlock[i] = *reps[k].Result
		if sums != nil {
			sums[i] = reps[k].Sums
		}
	}
	return lost, nil
}
