package core

import (
	"context"

	"isla/internal/block"
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

// Partial accounts for the fraction of the data a degraded run
// (Config.AllowPartial) could not reach: blocks quarantined on a local store
// or lost with no live replica on a shard tier. The
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

// Result is the output of an ISLA estimation run: O(1) state whatever the
// number of blocks. The per-block partials it folds reach only a caller that
// passes EstimateFrozen a destination for them.
type Result struct {
	// Estimate is the final AVG answer: Raw when it lies in the band the
	// draws certify, otherwise the band's nearest value (see
	// SummarizeBlocks).
	Estimate float64
	// Raw is ISLA's answer, Σ avg_j·|B_j|/M.
	Raw float64
	// DrawMean is the stratified plain mean of every draw the blocks hold —
	// the calculation's and, for a sampled pilot, each block's probe — and
	// DrawSE its standard error; both zero when the certificate abstained.
	DrawMean, DrawSE float64
	// Fallback reports that Estimate is not Raw: Raw lay more than
	// b = max(0, h − u·DrawSE) from DrawMean, h the certified half-width,
	// and Estimate is DrawMean ± b on Raw's side.
	Fallback bool
	// Sum is the derived SUM answer, Estimate · M.
	Sum float64
	// CI is the precision assurance the user asked for.
	CI stats.ConfidenceInterval
	// Pilot records the Pre-estimation outputs.
	Pilot Pilot
	// TotalSamples counts calculation-phase samples across all blocks
	// (excludes the pilot).
	TotalSamples int64
	// Shift is the negative-data translation d applied during computation
	// (zero for all-positive data): values were aggregated as v+Shift and
	// the answer translated back (§IV-A footnote).
	Shift float64
	// Partial is non-nil when the run degraded to the reachable fraction of
	// the data: Estimate then averages over Partial.CoveredRows only.
	Partial *Partial
}

// Estimate runs the full pipeline on the store: FreezePilot, then
// EstimateFrozen — the composition every unfiltered caller shares, with or
// without a plan cache. Blocks execute on the exec runtime with cfg.Workers
// concurrency, and the calculation phase stops promptly when ctx is
// cancelled.
func Estimate(ctx context.Context, s *block.Store, cfg Config) (Result, error) {
	src := localSource(s, cfg)
	fp, err := FreezePilot(ctx, src, cfg)
	if err != nil {
		return Result{}, err
	}
	return EstimateFrozen(ctx, src, cfg, fp, nil)
}
