package core

import (
	"context"

	"isla/internal/block"
	"isla/internal/exec"
	"isla/internal/modulate"
	"isla/internal/stats"
)

// BlockResult is one block's partial answer together with the modulation
// diagnostics the Table IV experiment inspects.
type BlockResult struct {
	BlockID int
	Len     int64
	Samples int64
	Answer  float64         // partial AVG of this block
	Detail  modulate.Result // iteration diagnostics (case, α, iterations…)
}

// Partial accounts for the fraction of the data a degraded run could not
// reach: blocks quarantined on a local store (Config.AllowPartial) or lost
// with no live replica on a shard tier (its transport's AllowPartial). The
// estimate covers CoveredRows of TotalRows and MissingBlocks lists the
// blocks that contributed nothing. A nil Result.Partial means the run
// covered every block.
type Partial struct {
	// MissingBlocks are the ids of blocks that contributed nothing, in
	// ascending order.
	MissingBlocks []int
	// CoveredRows is the total length of the blocks that answered.
	CoveredRows int64
	// TotalRows is the full row count, including the missing blocks.
	TotalRows int64
}

// Result is the output of an ISLA estimation run.
type Result struct {
	// Estimate is the final AVG answer, Σ avg_j·|B_j|/M.
	Estimate float64
	// Sum is the derived SUM answer, Estimate · M.
	Sum float64
	// CI is the precision assurance the user asked for.
	CI stats.ConfidenceInterval
	// Pilot records the Pre-estimation outputs.
	Pilot Pilot
	// PerBlock holds the partial answers in block order, one entry per
	// block; a block that contributed nothing (empty, or missing from a
	// degraded run) carries only its id.
	PerBlock []BlockResult
	// TotalSamples counts calculation-phase samples across all blocks
	// (excludes the pilot).
	TotalSamples int64
	// Shift is the negative-data translation d applied during computation
	// (zero for all-positive data): values were aggregated as v+Shift and
	// the answer translated back (§IV-A footnote).
	Shift float64
	// PilotCached reports that the pre-estimation phase was served from a
	// plan cache instead of being run: the run drew zero pilot samples.
	PilotCached bool
	// Partial is non-nil when the run degraded to the reachable fraction of
	// the data: Estimate then averages over Partial.CoveredRows only.
	Partial *Partial
}

// Estimate runs the full pipeline on the store: the non-i.i.d. variant
// (per-block boundaries, optionally variance-aware rates) when
// cfg.PerBlockBounds is set, otherwise the i.i.d. pipeline of the paper's
// main sections. Blocks execute on the exec runtime with cfg.Workers
// concurrency, and the calculation phase stops promptly when ctx is
// cancelled.
func Estimate(ctx context.Context, s *block.Store, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.PerBlockBounds {
		return runNonIID(ctx, s, cfg)
	}
	return runIID(ctx, s, cfg)
}

func runIID(ctx context.Context, s *block.Store, cfg Config) (Result, error) {
	src := localSource(s, cfg)
	down := src.Down()
	part, err := quarantineGate(src, down, cfg)
	if err != nil {
		return Result{}, err
	}
	r := stats.NewRNG(cfg.Seed)
	plan, err := PlanIID(s, cfg, r)
	if err != nil {
		return Result{}, err
	}
	blocks := s.Blocks()
	// Seeds are drawn for every block, quarantined or not, so the stream a
	// surviving block consumes does not shift when a neighbor is lost.
	seeds := exec.Seeds(r, len(blocks))
	perBlock, err := exec.Run(ctx, exec.Pool(cfg.Workers), len(blocks),
		func(ctx context.Context, i int) (BlockResult, error) {
			b := blocks[i]
			if down != nil && down[i] {
				// Zero Len: the lost block carries no weight in the merge.
				return BlockResult{BlockID: b.ID()}, nil
			}
			br, err := plan.RunBlock(ctx, b, stats.NewRNG(seeds[i]))
			return br, blockErr(b, err)
		})
	if err != nil {
		return Result{}, err
	}
	covered := s.TotalLen()
	if part != nil {
		covered = part.CoveredRows
	}
	res := plan.Summarize(perBlock, covered)
	res.Partial = part
	return res, nil
}

// runNonIID is the per-block pipeline cold: gate, freeze the pilot, resume it.
func runNonIID(ctx context.Context, s *block.Store, cfg Config) (Result, error) {
	src := localSource(s, cfg)
	// Refuse before the pilot samples anything, not after.
	if _, err := quarantineGate(src, src.Down(), cfg); err != nil {
		return Result{}, err
	}
	fp, err := FreezePilot(ctx, src, cfg)
	if err != nil {
		return Result{}, err
	}
	return EstimateFrozen(ctx, src, cfg, fp)
}
