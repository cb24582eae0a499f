package core

import "isla/internal/block"

// Filter is the compiled form of a WHERE conjunction as the estimator
// consumes it. Every filter carries a predicate closure; conjunctions of
// comparisons that reduce to a single closed interval [Lo, Hi] additionally
// carry the bounds, which unlocks the fused filtered gather kernel
// (compare-and-select inside the gather loop instead of a closure call per
// chunk) and zone-map pruning against persisted block summaries. The two
// representations must agree value-for-value; IntervalFilter guarantees it
// by deriving the closure from the bounds.
type Filter struct {
	// Pred reports whether a value satisfies the conjunction. Required.
	Pred func(float64) bool
	// Lo, Hi are the closed interval bounds, meaningful only when
	// HasInterval. Lo > Hi encodes a contradiction — a conjunction that
	// provably matches nothing (e.g. v > 5 AND v < 3).
	Lo, Hi float64
	// HasInterval reports that Pred is exactly "Lo <= v && v <= Hi".
	HasInterval bool
}

// PredFilter wraps a bare predicate closure: the general path, no fused
// kernel, no pruning.
func PredFilter(pred func(float64) bool) Filter { return Filter{Pred: pred} }

// IntervalFilter builds the filter for the closed interval [lo, hi], with
// the predicate closure derived from the bounds. lo > hi yields a
// contradiction filter.
func IntervalFilter(lo, hi float64) Filter {
	return Filter{
		Pred:        func(v float64) bool { return lo <= v && v <= hi },
		Lo:          lo,
		Hi:          hi,
		HasInterval: true,
	}
}

// Contradiction reports that the filter provably matches no value: the
// estimator answers no-match without drawing a single sample.
func (f Filter) Contradiction() bool { return f.HasInterval && f.Lo > f.Hi }

// classifyBlocks resolves the zone-map class of every block against the
// filter's interval from the summaries the source reports: nil when pruning
// cannot apply (no interval, disabled by config, or no block carries a
// summary). Blocks without a summary classify as overlap — the always-safe
// answer that samples through the filter.
func classifyBlocks(src BlockSource, f Filter, disabled bool) []block.SummaryClass {
	if disabled || !f.HasInterval {
		return nil
	}
	var classes []block.SummaryClass
	_, lens := src.Layout()
	for i := range lens {
		if sum, ok := src.Summary(i); ok {
			if classes == nil {
				classes = make([]block.SummaryClass, len(lens))
			}
			classes[i] = sum.Classify(f.Lo, f.Hi)
		}
	}
	return classes
}
