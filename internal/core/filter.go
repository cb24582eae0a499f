package core

import (
	"slices"

	"isla/internal/block"
)

// Filter is the compiled form of a WHERE conjunction as the estimator
// consumes it — plain data, the same value query.CompileInterval produces: a
// value v passes when Lo <= v && v <= Hi and v is none of the excluded points
// of the conjunction's <> conjuncts. NaN passes no filter. Being data, one
// form serves every consumer: the fused filtered gather kernel tests the
// bounds inside the gather loop (the excluded points are then removed from
// the accepted chunk, order preserved), zone-map pruning compares them
// against persisted block summaries, and a shard RPC carries them verbatim.
type Filter struct {
	// Lo, Hi are the closed interval bounds. Lo > Hi encodes a
	// contradiction — a conjunction that provably matches nothing (e.g.
	// v > 5 AND v < 3).
	Lo, Hi float64
	// Not holds the excluded points, nil for a pure range.
	Not []float64
}

// IntervalFilter builds the filter for the closed interval [lo, hi]. lo > hi
// yields a contradiction filter.
func IntervalFilter(lo, hi float64) Filter { return Filter{Lo: lo, Hi: hi} }

// Contradiction reports that the filter provably matches no value: the
// estimator answers no-match without drawing a single sample.
func (f Filter) Contradiction() bool { return f.Lo > f.Hi }

// equal reports that g is the same filter, bound for bound and point for
// point.
func (f Filter) equal(g Filter) bool {
	return f.Lo == g.Lo && f.Hi == g.Hi && slices.Equal(f.Not, g.Not)
}

// drop removes the excluded points from a chunk the bounds test accepted —
// compacted in place, draw order preserved — and returns what is left.
func (f *Filter) drop(vs []float64) []float64 {
	if len(f.Not) == 0 {
		return vs
	}
	k := 0
	for _, v := range vs {
		if !slices.Contains(f.Not, v) {
			vs[k] = v
			k++
		}
	}
	return vs[:k]
}

// classifyBlocks resolves the zone-map class of every block against the
// filter from the summaries the source reports: nil when no block carries a
// summary, so pruning cannot apply. Blocks without a summary classify as
// overlap — the always-safe answer that samples through the filter — and so
// does a block the bounds contain but whose [Min, Max] envelope reaches an
// excluded point.
func classifyBlocks(src BlockSource, f Filter) []block.SummaryClass {
	var classes []block.SummaryClass
	_, lens := src.Layout()
	for i := range lens {
		if sum, ok := src.Summary(i); ok {
			if classes == nil {
				classes = make([]block.SummaryClass, len(lens))
			}
			classes[i] = sum.Classify(f.Lo, f.Hi)
			if classes[i] == block.SummaryContained &&
				slices.ContainsFunc(f.Not, func(x float64) bool { return sum.Min <= x && x <= sum.Max }) {
				classes[i] = block.SummaryOverlap
			}
		}
	}
	return classes
}
