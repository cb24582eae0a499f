package core

import (
	"context"

	"isla/internal/block"
)

// Executor is the estimator's execution surface over one collection of
// blocks — the seam between the engine's query path and where the data
// actually lives. The engine plans, caches and summarizes through this
// interface only, so a local *block.Store and a remote shard set (the
// cluster package's ShardTable) serve queries through the same plan cache
// and degradation policy.
//
// The four pipeline methods are this package's FreezePilot, EstimateFrozen,
// FreezeFilterPilot and EstimateFilteredFrozen bound to the executor's
// BlockSource: FreezePilot captures a precision-independent pre-estimation
// (per-block statistics plus the post-pilot RNG state) and EstimateFrozen
// resumes it; likewise for the filtered pair. There is one implementation
// of each, so for a given seed the answers are bit-identical across
// executors and worker topologies.
type Executor interface {
	// NumBlocks and TotalLen describe the block layout the pipelines plan
	// over.
	NumBlocks() int
	TotalLen() int64
	// SummaryChecksum fingerprints the executor's content identity for
	// plan-cache keying: persisted block summaries locally, the shard
	// manifest remotely. Zero when no fingerprint exists.
	SummaryChecksum() uint64
	// FreezePilot runs the per-block pre-estimation from cfg.Seed.
	FreezePilot(ctx context.Context, cfg Config) (FrozenPilot, error)
	// EstimateFrozen runs the calculation phase from a frozen pilot.
	EstimateFrozen(ctx context.Context, cfg Config, fp FrozenPilot) (Result, error)
	// FreezeFilterPilot runs the filtered pre-estimation from cfg.Seed.
	FreezeFilterPilot(ctx context.Context, cfg Config, f Filter) (FilterPilot, error)
	// EstimateFilteredFrozen runs the filtered calculation phase from a
	// frozen filter pilot.
	EstimateFilteredFrozen(ctx context.Context, cfg Config, f Filter, fp FilterPilot) (FilteredResult, error)
}

// LocalExecutor is the Executor of a *block.Store: the package's pipelines
// over the store's in-process BlockSource.
type LocalExecutor struct {
	S *block.Store
}

// Source returns the store's in-process BlockSource, its phases running on
// cfg's worker pool.
func (l LocalExecutor) Source(cfg Config) BlockSource { return localSource(l.S, cfg) }

// NumBlocks implements Executor.
func (l LocalExecutor) NumBlocks() int { return l.S.NumBlocks() }

// TotalLen implements Executor.
func (l LocalExecutor) TotalLen() int64 { return l.S.TotalLen() }

// SummaryChecksum implements Executor with the store's persisted-summary
// fingerprint.
func (l LocalExecutor) SummaryChecksum() uint64 { return l.S.SummaryChecksum() }

// FreezePilot implements Executor.
func (l LocalExecutor) FreezePilot(ctx context.Context, cfg Config) (FrozenPilot, error) {
	return FreezePilot(ctx, l.Source(cfg), cfg)
}

// EstimateFrozen implements Executor.
func (l LocalExecutor) EstimateFrozen(ctx context.Context, cfg Config, fp FrozenPilot) (Result, error) {
	return EstimateFrozen(ctx, l.Source(cfg), cfg, fp)
}

// FreezeFilterPilot implements Executor.
func (l LocalExecutor) FreezeFilterPilot(ctx context.Context, cfg Config, f Filter) (FilterPilot, error) {
	return FreezeFilterPilot(ctx, l.Source(cfg), cfg, f)
}

// EstimateFilteredFrozen implements Executor.
func (l LocalExecutor) EstimateFilteredFrozen(ctx context.Context, cfg Config, f Filter, fp FilterPilot) (FilteredResult, error) {
	return EstimateFilteredFrozen(ctx, l.Source(cfg), cfg, f, fp)
}
