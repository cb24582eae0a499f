// Predicate-filtered estimation: AVG/SUM/COUNT restricted to the rows
// matching a WHERE conjunction. The sampling fast path stays untouched —
// the estimator plans the raw samples per block exactly as the unfiltered
// path would and rejects non-matching values at gather time, in the fused
// gather kernel (compare-and-select on the filter's bounds inside the gather
// loop; a <> conjunct's excluded points are then removed from the accepted
// chunk). The sampled acceptance fraction p̂_i of each block corrects the
// partial answers Horvitz–Thompson style: the block's matching-row mass is
// estimated as p̂_i·|B_i|, so the combined AVG is the self-normalized ratio
// Σ mean_i·p̂_i·|B_i| / Σ p̂_i·|B_i|, COUNT is Σ p̂_i·|B_i| and SUM their
// product — each unbiased in the HT sense under uniform with-replacement
// block sampling.
//
// Zone-map pruning rides on the persisted per-block summaries (ISLB v2
// footers): a block whose [Min, Max] envelope is disjoint from the
// predicate interval contributes an exact zero — its planned draws would
// all be rejected, so the estimator books them as 0-of-q accepted without
// touching the block; a block whose envelope is contained in the interval
// samples through the unfiltered fast path with acceptance probability
// exactly 1. Pruning cannot change any answer bit: both the pilot and the
// calculation phase derive one seed per quota-bearing block from the
// master stream whether the block is pruned or not, and a pruned block's
// synthesized outcome (0 of q, or q of q via the unfiltered gather of the
// same raw index stream) is exactly what sampling it through the filter
// would produce. Only the physically-drawn counts differ — pruned blocks
// report zero samples drawn.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"isla/internal/block"
	"isla/internal/stats"
)

// ErrNoMatch is returned when sampling (or an exact scan) finds no row
// satisfying the predicate: the conditional mean is undefined. Callers
// answering COUNT may map it to zero.
var ErrNoMatch = errors.New("core: no sampled row satisfies the predicate")

// FilterPilot is the pre-estimation state of a filtered run, frozen for
// reuse: the conditional statistics of the accepted pilot draws, the
// observed acceptance fraction, the zone-map classification of every
// block, and the RNG state after the pilot consumed its draws. The pilot's
// raw draw count depends only on the seed, the data and the predicate —
// never on the per-query precision — so one frozen filter pilot serves
// every precision/confidence combination on the same table, seed and
// predicate.
type FilterPilot struct {
	// Mean and Sigma are the conditional mean and standard deviation of
	// the accepted pilot values.
	Mean, Sigma float64
	// Selectivity is Accepted/Drawn — the sampled estimate of the
	// predicate's acceptance probability. Planned draws booked against
	// pruned-disjoint blocks count in the denominator: the zone map proves
	// they would have been rejected.
	Selectivity float64
	// Drawn and Accepted count the pilot's planned raw draws and
	// survivors. PrunedDraws of the Drawn were never physically serviced —
	// they were booked as rejected against disjoint blocks.
	Drawn, Accepted int64
	// PrunedDraws counts planned pilot draws resolved by zone maps instead
	// of sampling.
	PrunedDraws int64
	// Filter echoes the filter the pilot was frozen for;
	// EstimateFilteredFrozen refuses a mismatching one.
	Filter Filter
	// Classes is the zone-map classification per block (nil when pruning
	// did not apply). Frozen with the pilot so a plan-cache hit reuses the
	// classification decisions, keyed by the store's summary checksum.
	Classes []block.SummaryClass
	// RNG is the generator state after the pilot's draws; resuming it
	// yields the exact stream a cold run would use for per-block seeds.
	RNG stats.RNGState
	// Blocks and TotalLen record the store shape the pilot was frozen
	// over; EstimateFilteredFrozen refuses a mismatching store.
	Blocks   int
	TotalLen int64
}

// BlockFilterResult is one block's filtered partial answer.
type BlockFilterResult struct {
	BlockID  int
	Len      int64
	Class    block.SummaryClass
	Planned  int64   // raw draws the plan allocated to the block
	Drawn    int64   // raw draws physically serviced (0 when pruned)
	Accepted int64   // draws that passed the predicate
	Mean     float64 // conditional mean of the accepted draws (0 when none)
}

// FilteredResult is the outcome of a filtered estimation run.
type FilteredResult struct {
	// Avg estimates the conditional mean E[v | pred].
	Avg float64
	// Sum estimates Σ v·1[pred] over the store (Avg · Count).
	Sum float64
	// Count estimates the number of matching rows, Σ p̂_i·|B_i|.
	Count float64
	// Selectivity is the calculation phase's overall acceptance fraction
	// over planned draws.
	Selectivity float64
	// CI bounds Avg at the configured confidence.
	CI stats.ConfidenceInterval
	// CountCI bounds Count (binomial normal approximation on p̂).
	CountCI stats.ConfidenceInterval
	// SumCI bounds Sum: a first-order bound combining the Avg and Count
	// interval half-widths, conservative by construction.
	SumCI stats.ConfidenceInterval
	// Planned counts the calculation phase's allocated raw draws; Drawn
	// the physically serviced subset (they differ exactly by the draws
	// booked against pruned-disjoint blocks); Accepted the survivors. The
	// pilot's counts are in Pilot.
	Planned, Drawn, Accepted int64
	// PrunedBlocks and ContainedBlocks count quota-bearing blocks resolved
	// by zone maps: skipped as disjoint, or fast-pathed as contained.
	PrunedBlocks, ContainedBlocks int
	// Pilot is the pre-estimation that sized the run.
	Pilot FilterPilot
	// PilotCached reports the pilot was served from a plan cache.
	PilotCached bool
	// PerBlock holds the partial answers in block order.
	PerBlock []BlockFilterResult
}

// filterProbeSize is the fixed raw probe that bootstraps the filter pilot,
// mirroring the unfiltered pilot's probe discipline; filterPilotTarget is
// the accepted-sample count the second pilot stage aims for. Both are
// precision-independent by design: the pilot's RNG consumption must
// depend only on the seed, the data and the predicate so a frozen filter
// pilot is shareable across precision targets.
const (
	filterProbeSize   = 1000
	filterPilotTarget = 2000
)

// classAt returns the zone-map class of block i, overlap when pruning did
// not apply.
func classAt(classes []block.SummaryClass, i int) block.SummaryClass {
	if classes == nil {
		return block.SummaryOverlap
	}
	return classes[i]
}

// quotaLens is the layout's block lengths as quota allocation sees them:
// down blocks count for nothing, so the whole budget lands on the rest.
func quotaLens(src BlockSource) []int64 {
	_, lens := src.Layout()
	down := src.Down()
	if down == nil {
		return lens
	}
	lens = slices.Clone(lens)
	for i, d := range down {
		if d {
			lens[i] = 0
		}
	}
	return lens
}

// filterPhase derives one filtered phase's requests from its raw draw
// budget: quotas proportional to block length, one master-stream seed per
// quota-bearing block in block order — whether or not the block is then
// pruned, so pruning never shifts a sibling's stream — and a request for
// every quota-bearing block the zone map does not prove disjoint.
func filterPhase(r *stats.RNG, lens []int64, classes []block.SummaryClass, raw int64) (quotas []int64, reqs []FilterReq) {
	quotas = block.QuotasFor(lens, raw)
	reqs = make([]FilterReq, 0, len(quotas))
	for i, q := range quotas {
		if q == 0 {
			continue
		}
		seed := r.Uint64()
		if class := classAt(classes, i); class != block.SummaryDisjoint {
			reqs = append(reqs, FilterReq{Block: i, Seed: seed, Draws: q, Class: class})
		}
	}
	return quotas, reqs
}

// FreezeFilterPilot runs the filtered pre-estimation from cfg.Seed over src
// and captures the post-pilot generator state. Stage one probes a fixed raw
// draw to see the acceptance fraction and conditional spread; stage two
// grows the accepted sample to a fixed target, inflating the raw draw
// count by the observed selectivity. Neither stage depends on the
// precision or confidence target. Each stage travels to the source as one
// phase; the accepted values then fold into the shared pilot moments in
// block order (Moments.AddSlice is element-wise Welford, so the fold is the
// sequential one bit for bit). A contradiction filter freezes an empty
// pilot without drawing (or planning) a single sample.
func FreezeFilterPilot(ctx context.Context, src BlockSource, cfg Config, f Filter) (FilterPilot, error) {
	if err := cfg.Validate(); err != nil {
		return FilterPilot{}, err
	}
	total := src.TotalLen()
	if total == 0 {
		return FilterPilot{}, ErrEmptyStore
	}
	lens := quotaLens(src)
	fp := FilterPilot{Filter: f, Blocks: len(lens), TotalLen: total}
	r := stats.NewRNG(cfg.Seed)
	if f.Contradiction() {
		fp.RNG = r.State()
		return fp, nil
	}
	fp.Classes = classifyBlocks(src, f)

	var pm stats.Moments
	stage := func(raw int64) error {
		quotas, reqs := filterPhase(r, lens, fp.Classes, raw)
		values, err := src.FilterPilot(ctx, reqs, f)
		if err != nil {
			return fmt.Errorf("core: filter pilot: %w", err)
		}
		var planned, serviced int64
		for _, q := range quotas {
			planned += q
		}
		for k, req := range reqs {
			serviced += req.Draws
			pm.AddSlice(values[k])
			fp.Accepted += int64(len(values[k]))
		}
		fp.Drawn += planned
		fp.PrunedDraws += planned - serviced
		return nil
	}

	probe := int64(filterProbeSize)
	if probe > total {
		probe = total
	}
	if err := stage(probe); err != nil {
		return FilterPilot{}, err
	}
	if fp.Accepted > 0 {
		// Stage two grows the accepted sample to a fixed target so σ and
		// the selectivity stabilize. The target depends only on the data
		// and the predicate (cfg.PilotSize overrides it) — never on the
		// per-query precision — so one frozen filter pilot really does
		// serve every precision/confidence combination and plan-cache
		// keys need no precision field.
		want := int64(filterPilotTarget)
		if cfg.PilotSize > 0 {
			want = cfg.PilotSize
		}
		sel := float64(fp.Accepted) / float64(fp.Drawn)
		if raw := rawDraws(want, sel, total); raw > 0 {
			if err := stage(raw); err != nil {
				return FilterPilot{}, err
			}
		}
	}
	fp.Selectivity = float64(fp.Accepted) / float64(fp.Drawn)
	fp.RNG = r.State()
	if fp.Accepted > 0 {
		fp.Mean = pm.Mean()
		fp.Sigma = pm.SampleStdDev()
	}
	return fp, nil
}

// rawDraws converts a target accepted-sample count into raw draws by
// inflating with the acceptance fraction, capped at the store size.
func rawDraws(want int64, selectivity float64, totalLen int64) int64 {
	if want < 1 {
		want = 1
	}
	rawF := float64(want) / selectivity
	if !(rawF > 0) || rawF > float64(totalLen) { // selectivity 0 → +Inf → cap
		return totalLen
	}
	return int64(math.Ceil(rawF))
}

// EstimateFiltered runs the filtered estimator on a store: it freezes a
// pilot and resumes it, so cold runs and plan-cache hits share one code
// path and are bit-identical per seed.
func EstimateFiltered(ctx context.Context, s *block.Store, cfg Config, f Filter) (FilteredResult, error) {
	src := localSource(s, cfg)
	fp, err := FreezeFilterPilot(ctx, src, cfg, f)
	if err != nil {
		return FilteredResult{}, err
	}
	return EstimateFilteredFrozen(ctx, src, cfg, f, fp)
}

// EstimateFilteredFrozen runs the calculation phase from a frozen filter
// pilot over src: the raw sampling plan is re-derived for cfg's precision
// target (Eq. 1 on the conditional σ, inflated by the pilot's
// selectivity), per-block raw quotas follow the proportional allocation,
// and the quota-bearing blocks travel to the source as one phase with seeds
// derived from the frozen RNG state — bit-identical for every source and
// worker count, and for the freezing seed bit-identical to a cold
// EstimateFiltered run. Zone-map decisions frozen in the pilot are reused
// verbatim: disjoint blocks book their quota as rejected without a request,
// contained blocks gather unfiltered. A block the source loses fails the
// query: the Horvitz–Thompson correction scales by the full row count, so
// partial coverage would bias the answer.
func EstimateFilteredFrozen(ctx context.Context, src BlockSource, cfg Config, f Filter, fp FilterPilot) (FilteredResult, error) {
	if err := cfg.Validate(); err != nil {
		return FilteredResult{}, err
	}
	total := src.TotalLen()
	if total == 0 {
		return FilteredResult{}, ErrEmptyStore
	}
	ids, lens := src.Layout()
	if fp.Blocks != len(ids) || fp.TotalLen != total {
		return FilteredResult{}, fmt.Errorf("core: filter pilot frozen over %d blocks/%d rows, source has %d/%d — frozen from a different layout?",
			fp.Blocks, fp.TotalLen, len(ids), total)
	}
	if !f.equal(fp.Filter) {
		return FilteredResult{}, errors.New("core: filter pilot frozen for a different predicate")
	}
	if fp.Classes != nil && len(fp.Classes) != len(ids) {
		return FilteredResult{}, errors.New("core: filter pilot classification does not cover the source")
	}
	if fp.Accepted == 0 {
		// The pilot saw no matching row (for a contradiction filter,
		// provably so, with zero draws): no σ to size a run with. No
		// calculation phase runs; the result reports the pilot's planned and
		// physical draws, and the quota-bearing blocks its zone map pruned,
		// so COUNT callers answering zero can still surface the sampling
		// effort. Only the probe stage ran, so its quotas are the pilot's.
		out := FilteredResult{Pilot: fp, Drawn: fp.Drawn - fp.PrunedDraws, Planned: fp.Drawn}
		for i, q := range block.QuotasFor(quotaLens(src), fp.Drawn) {
			if q > 0 && classAt(fp.Classes, i) == block.SummaryDisjoint {
				out.PrunedBlocks++
			}
		}
		return out, ErrNoMatch
	}

	// Eq. (1) for the conditional mean, scaled like the unfiltered plan,
	// then inflated to raw draws by the pilot's acceptance fraction.
	want, err := stats.RequiredSampleSize(fp.Sigma, cfg.Precision, cfg.Confidence)
	if err != nil {
		return FilteredResult{}, fmt.Errorf("core: filtered sample size: %w", err)
	}
	want = int64(float64(want) * cfg.SampleFraction)
	raw := rawDraws(want, fp.Selectivity, total)
	if maxRaw := int64(cfg.MaxSampleRate * float64(total)); raw > maxRaw && maxRaw > 0 {
		raw = maxRaw
	}
	if raw < 1 {
		raw = 1
	}

	quotas, reqs := filterPhase(fp.RNG.RNG(), quotaLens(src), fp.Classes, raw)
	reps, err := src.FilterCalc(ctx, reqs, f)
	if err != nil {
		return FilteredResult{}, err
	}

	out := FilteredResult{Pilot: fp, PerBlock: make([]BlockFilterResult, len(lens))}
	var pooled stats.Moments
	var count, sum float64
	k := 0
	for i := range out.PerBlock {
		res := &out.PerBlock[i]
		*res = BlockFilterResult{BlockID: ids[i], Len: lens[i], Class: classAt(fp.Classes, i)}
		if quotas == nil || quotas[i] == 0 {
			continue
		}
		res.Planned = quotas[i]
		out.Planned += res.Planned
		switch res.Class {
		case block.SummaryDisjoint:
			// The zone map proves every draw would be rejected: the planned
			// quota is booked as 0 accepted without touching the block.
			out.PrunedBlocks++
			continue
		case block.SummaryContained:
			out.ContainedBlocks++
		}
		rep := reps[k]
		k++
		res.Drawn = res.Planned
		res.Accepted = rep.Accepted
		res.Mean = rep.M.Mean()
		out.Drawn += res.Drawn
		out.Accepted += res.Accepted
		// Horvitz–Thompson per block: p̂_i·|B_i| matching rows. Planned
		// draws are the denominator — a pruned block's quota counts as
		// drawn-and-rejected, which is exactly what sampling it would
		// have produced.
		ci := float64(res.Accepted) / float64(res.Planned) * float64(res.Len)
		count += ci
		sum += res.Mean * ci
		pooled.Merge(rep.M)
	}
	if out.Accepted == 0 {
		return out, ErrNoMatch
	}
	out.Selectivity = float64(out.Accepted) / float64(out.Planned)
	out.Count = count
	out.Avg = sum / count
	out.Sum = sum

	out.CI, err = stats.MeanCI(out.Avg, pooled.SampleStdDev(), out.Accepted, cfg.Confidence)
	if err != nil {
		return FilteredResult{}, err
	}
	p := out.Selectivity
	pci, err := stats.MeanCI(p, math.Sqrt(p*(1-p)), out.Planned, cfg.Confidence)
	if err != nil {
		return FilteredResult{}, err
	}
	out.CountCI = stats.ConfidenceInterval{
		Center:     out.Count,
		HalfWidth:  pci.HalfWidth * float64(total),
		Confidence: cfg.Confidence,
	}
	// First-order: |Δ(A·C)| ≤ |C|·ΔA + |A|·ΔC.
	out.SumCI = stats.ConfidenceInterval{
		Center:     out.Sum,
		HalfWidth:  out.Count*out.CI.HalfWidth + math.Abs(out.Avg)*out.CountCI.HalfWidth,
		Confidence: cfg.Confidence,
	}
	return out, nil
}

// ExactFiltered scans the store and returns the exact matching-row count
// and sum — the golden truth filtered estimates are judged against, and
// the METHOD EXACT execution path for filtered queries.
func ExactFiltered(s *block.Store, pred func(float64) bool) (count int64, sum float64, err error) {
	if pred == nil {
		return 0, 0, errors.New("core: nil predicate")
	}
	err = s.Scan(func(v float64) error {
		if pred(v) {
			count++
			sum += v
		}
		return nil
	})
	return count, sum, err
}
