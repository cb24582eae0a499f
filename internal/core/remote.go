// Remote execution pipelines: the per-block estimation phases rebuilt over
// a BlockSource, the minimal surface a shard tier implements. Each pipeline
// mirrors its store-backed sibling line for line — same probe sizing, quota
// allocation (block.QuotasFor is the pure core of Store.Quotas), seed
// derivation (one master-stream draw per planned block, in block order) and
// merge order — so for a given seed and block layout a remote run returns
// the exact answer bits of the local run. A phase derives all of its
// per-block requests before handing them to the source in one call, so a
// source pays round trips per phase, not per block. Two divergences, both
// invisible in the answer: remote blocks carry no persisted summaries (no
// zone maps; pruning only ever moves the physically-drawn diagnostics) and
// are never quarantined (loss is handled by replica failover).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"isla/internal/block"
	"isla/internal/stats"
)

// BlockSource is the execution surface a remote shard tier exposes to the
// pipelines: the block layout that fixes quota allocation and seed order,
// plus the four phases. A phase receives every per-block request of one
// pipeline stage at once — only blocks with work to do, in block order —
// and returns the replies in request order; how the requests travel
// (grouped per worker, in parallel, retried, failed over) is the source's
// business. Implementations must reproduce the local per-block computations
// exactly — the cluster workers run the very same block.SampleChunks /
// SampleFilteredIntervalChunks kernels.
type BlockSource interface {
	TotalLen() int64
	// Layout returns the block ids and lengths in the source's fixed order,
	// index-aligned and read-only. Requests name a block by its index here.
	Layout() (ids []int, lens []int64)
	// Pilot serves the unfiltered pre-estimation's probes.
	Pilot(ctx context.Context, reqs []PilotReq) ([]PilotRep, error)
	// FilterPilot serves one stage of the filtered pre-estimation: each
	// block's accepted values in draw order (raw values, because the pilot's
	// moments accumulate across blocks in one shared fold).
	FilterPilot(ctx context.Context, reqs []FilterReq, f Filter) ([][]float64, error)
	// FilterCalc serves the filtered calculation phase.
	FilterCalc(ctx context.Context, reqs []FilterReq, f Filter) ([]FilterCalcRep, error)
	// Calc serves the calculation phase: Algorithm 1 where the block lives,
	// resolved into the block's partial answer.
	Calc(ctx context.Context, reqs []CalcReq) ([]CalcRep, error)
}

// PilotReq asks for Size uniform draws from block Block with the master RNG
// resumed at Start, its state after the probes of every earlier block.
type PilotReq struct {
	Block int
	Size  int64
	Start stats.RNGState
}

// PilotRep is a probe's moments, the length of the block it was drawn from
// and the generator state after the draw.
type PilotRep struct {
	M   stats.Moments
	Len int64
	End stats.RNGState
}

// FilterReq asks for Draws raw draws on block Block from a fresh RNG(Seed)
// under the phase's interval filter.
type FilterReq struct {
	Block int
	Seed  uint64
	Draws int64
}

// FilterCalcRep is a block's accepted count and the accepted values' moments.
type FilterCalcRep struct {
	Accepted int64
	M        stats.Moments
}

// CalcReq runs Algorithm 1 for Plan on block Block from a fresh RNG(Seed).
type CalcReq struct {
	Block int
	Plan  *Plan
	Seed  uint64
}

// CalcRep is a block's resolved partial answer. Lost: the block had no live
// replica and the source's policy allows a partial answer, so the pipeline
// accounts the loss instead of failing.
type CalcRep struct {
	Result BlockResult
	Lost   bool
}

// PilotStreamError reports a remote probe that did not draw the stream the
// coordinator predicted — the block it ran on is not the length the layout
// records, or the generator ended elsewhere — instead of answering
// differently in silence.
type PilotStreamError struct {
	BlockID      int
	Len, WantLen int64
}

func (e *PilotStreamError) Error() string {
	return fmt.Sprintf("core: block %d pilot left the planned stream (block length %d, layout records %d)",
		e.BlockID, e.Len, e.WantLen)
}

// filterReqs derives one filtered phase's requests: a master-stream seed
// for every block with a non-zero quota, in block order.
func filterReqs(r *stats.RNG, quotas []int64) []FilterReq {
	reqs := make([]FilterReq, 0, len(quotas))
	for i, q := range quotas {
		if q > 0 {
			reqs = append(reqs, FilterReq{Block: i, Seed: r.Uint64(), Draws: q})
		}
	}
	return reqs
}

// FreezePilotRemote runs the per-block pre-estimation over a BlockSource —
// the remote mirror of FreezePilot/PreEstimatePerBlock. The probes thread
// one RNG through the blocks (each block's draws start where the previous
// block's ended), but how far a probe advances it depends only on (block
// length, draw count), never on the data: the master generator is skipped
// over each probe here, so every start state is known up front, the pilot
// is one phase, and each reply's end state is checked against the prediction.
func FreezePilotRemote(ctx context.Context, src BlockSource, cfg Config) (FrozenPilot, error) {
	if err := cfg.Validate(); err != nil {
		return FrozenPilot{}, err
	}
	total := src.TotalLen()
	if total == 0 {
		return FrozenPilot{}, ErrEmptyStore
	}
	ids, lens := src.Layout()
	pilots := make([]BlockPilot, len(lens))
	r := stats.NewRNG(cfg.Seed)
	reqs := make([]PilotReq, 0, len(lens))
	ends := make([]stats.RNGState, 0, len(lens)) // predicted state after each probe
	for i, blen := range lens {
		if blen == 0 {
			continue
		}
		// The probe sizing is PreEstimatePerBlock's, verbatim.
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
	var pooled stats.Moments
	for k, rep := range reps {
		i := reqs[k].Block
		if rep.Len != lens[i] || rep.End != ends[k] {
			return FrozenPilot{}, &PilotStreamError{BlockID: ids[i], Len: rep.Len, WantLen: lens[i]}
		}
		pilots[i] = BlockPilot{Sketch0: rep.M.Mean(), Sigma: rep.M.SampleStdDev(), Len: rep.Len}
		pooled.Merge(rep.M)
	}
	sigma := pooled.SampleStdDev()
	rate, m, err := planSize(sigma, cfg, total)
	if err != nil {
		return FrozenPilot{}, err
	}
	overall := Pilot{
		Sketch0:    pooled.Mean(),
		Sigma:      sigma,
		SampleRate: rate,
		SampleSize: m,
		PilotSize:  pooled.Count(),
		RelaxedE:   cfg.RelaxFactor * cfg.Precision,
		Min:        pooled.Min(),
		Max:        pooled.Max(),
	}
	return FrozenPilot{Pilots: pilots, Base: overall, RNG: r.State()}, nil
}

// EstimateFrozenRemote runs the calculation phase from a frozen pilot over
// a BlockSource — the remote mirror of EstimateFrozen/runPlans. All planned
// blocks travel as one phase; a block the source reports lost (no live
// replica, partial answers allowed) keeps its place in the seed stream but
// contributes nothing, and the result carries the Partial accounting —
// exactly the coordinator's degradation contract.
func EstimateFrozenRemote(ctx context.Context, src BlockSource, cfg Config, fp FrozenPilot) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	total := src.TotalLen()
	if total == 0 {
		return Result{}, ErrEmptyStore
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
	// stream runPlans draws locally.
	r := fp.RNG.RNG()
	reqs := make([]CalcReq, 0, len(plans))
	var shift float64
	for i, p := range plans {
		if p != nil {
			reqs = append(reqs, CalcReq{Block: i, Plan: p, Seed: r.Uint64()})
			shift = p.Shift
		}
	}
	reps, err := src.Calc(ctx, reqs)
	if err != nil {
		return Result{}, err
	}
	perBlock := make([]BlockResult, 0, len(plans))
	var covered int64
	var missing []int
	k := 0
	for i, p := range plans {
		if p == nil {
			perBlock = append(perBlock, BlockResult{BlockID: ids[i]})
			continue
		}
		rep := reps[k]
		k++
		if rep.Lost {
			missing = append(missing, ids[i])
			continue
		}
		perBlock = append(perBlock, rep.Result)
		covered += rep.Result.Len
	}
	if len(missing) == 0 {
		return SummarizeBlocks(cfg, overall, shift, perBlock, total), nil
	}
	if covered == 0 {
		return Result{}, fmt.Errorf("core: every block lost: %v", missing)
	}
	res := SummarizeBlocks(cfg, overall, shift, perBlock, covered)
	res.Partial = &Partial{MissingBlocks: missing, CoveredRows: covered, TotalRows: total}
	return res, nil
}

// FreezeFilterPilotRemote runs the filtered pre-estimation over a
// BlockSource — the remote mirror of FreezeFilterPilot. Remote blocks
// carry no persisted summaries, so no zone-map classification is frozen
// (fp.Classes stays nil — every block samples through the filter, the class
// that never moves an answer bit). Each stage's draws travel as one phase;
// the accepted values then fold into the shared pilot moments in block
// order, bit-identical to the local sequential fold because
// Moments.AddSlice is element-wise Welford.
func FreezeFilterPilotRemote(ctx context.Context, src BlockSource, cfg Config, f Filter) (FilterPilot, error) {
	if err := cfg.Validate(); err != nil {
		return FilterPilot{}, err
	}
	if f.Pred == nil {
		return FilterPilot{}, errors.New("core: nil predicate")
	}
	if !f.HasInterval && !f.Contradiction() {
		return FilterPilot{}, errors.New("core: remote filtered execution requires an interval filter (closures cannot travel)")
	}
	total := src.TotalLen()
	if total == 0 {
		return FilterPilot{}, ErrEmptyStore
	}
	_, lens := src.Layout()
	fp := FilterPilot{
		Lo:          f.Lo,
		Hi:          f.Hi,
		HasInterval: f.HasInterval,
		Blocks:      len(lens),
		TotalLen:    total,
	}
	r := stats.NewRNG(cfg.Seed)
	if f.Contradiction() {
		fp.RNG = r.State()
		return fp, nil
	}

	var pm stats.Moments
	stage := func(raw int64) error {
		reqs := filterReqs(r, block.QuotasFor(lens, raw))
		values, err := src.FilterPilot(ctx, reqs, f)
		if err != nil {
			return fmt.Errorf("core: filter pilot: %w", err)
		}
		for k, req := range reqs {
			fp.Drawn += req.Draws
			pm.AddSlice(values[k])
			fp.Accepted += int64(len(values[k]))
		}
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

// EstimateFilteredFrozenRemote runs the filtered calculation phase from a
// frozen filter pilot over a BlockSource — the remote mirror of
// EstimateFilteredFrozen. A lost block always fails the query: the
// Horvitz–Thompson correction scales by the full row count, so partial
// coverage would bias the answer (the same reason the engine refuses
// filtered queries over quarantined stores).
func EstimateFilteredFrozenRemote(ctx context.Context, src BlockSource, cfg Config, f Filter, fp FilterPilot) (FilteredResult, error) {
	if err := cfg.Validate(); err != nil {
		return FilteredResult{}, err
	}
	if f.Pred == nil {
		return FilteredResult{}, errors.New("core: nil predicate")
	}
	if !f.HasInterval {
		return FilteredResult{}, errors.New("core: remote filtered execution requires an interval filter (closures cannot travel)")
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
	if fp.HasInterval != f.HasInterval || !(fp.Lo == f.Lo && fp.Hi == f.Hi) {
		return FilteredResult{}, errors.New("core: filter pilot frozen for a different predicate")
	}
	if fp.Classes != nil && len(fp.Classes) != len(ids) {
		return FilteredResult{}, errors.New("core: filter pilot classification does not cover the source")
	}
	if fp.Accepted == 0 {
		return FilteredResult{Pilot: fp, Drawn: fp.Drawn - fp.PrunedDraws, Planned: fp.Drawn}, ErrNoMatch
	}

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

	reqs := filterReqs(fp.RNG.RNG(), block.QuotasFor(lens, raw))
	reps, err := src.FilterCalc(ctx, reqs, f)
	if err != nil {
		return FilteredResult{}, err
	}

	out := FilteredResult{Pilot: fp, PerBlock: make([]BlockFilterResult, len(lens))}
	for i := range out.PerBlock {
		out.PerBlock[i] = BlockFilterResult{BlockID: ids[i], Len: lens[i], Class: classAt(fp.Classes, i)}
	}
	var pooled stats.Moments
	var count, sum float64
	for k, req := range reqs {
		res := &out.PerBlock[req.Block]
		res.Planned, res.Drawn = req.Draws, req.Draws
		res.Accepted = reps[k].Accepted
		res.Mean = reps[k].M.Mean()
		out.Planned += res.Planned
		out.Drawn += res.Drawn
		out.Accepted += res.Accepted
		ci := float64(res.Accepted) / float64(res.Planned) * float64(res.Len)
		count += ci
		sum += res.Mean * ci
		pooled.Merge(reps[k].M)
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
	out.SumCI = stats.ConfidenceInterval{
		Center:     out.Sum,
		HalfWidth:  out.Count*out.CI.HalfWidth + math.Abs(out.Avg)*out.CountCI.HalfWidth,
		Confidence: cfg.Confidence,
	}
	return out, nil
}
