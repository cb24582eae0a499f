package core

import (
	"context"

	"isla/internal/block"
)

// LocalExecutor binds a *block.Store to this package's pipelines: Source is
// the store's in-process BlockSource, and each pipeline method runs the
// package function of the same name over a fresh one.
type LocalExecutor struct {
	S *block.Store
}

// Source returns the store's in-process BlockSource, its phases running on
// cfg's worker pool.
func (l LocalExecutor) Source(cfg Config) BlockSource { return localSource(l.S, cfg) }

// FreezePilot is FreezePilot over the store.
func (l LocalExecutor) FreezePilot(ctx context.Context, cfg Config) (FrozenPilot, error) {
	return FreezePilot(ctx, l.Source(cfg), cfg)
}

// EstimateFrozen is EstimateFrozen over the store, keeping no per-block
// partials.
func (l LocalExecutor) EstimateFrozen(ctx context.Context, cfg Config, fp FrozenPilot) (Result, error) {
	return EstimateFrozen(ctx, l.Source(cfg), cfg, fp, nil)
}

// FreezeFilterPilot is FreezeFilterPilot over the store.
func (l LocalExecutor) FreezeFilterPilot(ctx context.Context, cfg Config, f Filter) (FilterPilot, error) {
	return FreezeFilterPilot(ctx, l.Source(cfg), cfg, f)
}

// EstimateFilteredFrozen is EstimateFilteredFrozen over the store, keeping
// no per-block partials.
func (l LocalExecutor) EstimateFilteredFrozen(ctx context.Context, cfg Config, f Filter, fp FilterPilot) (FilteredResult, error) {
	return EstimateFilteredFrozen(ctx, l.Source(cfg), cfg, f, fp, nil)
}
