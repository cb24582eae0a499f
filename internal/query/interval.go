package query

import (
	"fmt"
	"math"
	"slices"
)

// Interval is a WHERE conjunction compiled down to plain data: a closed
// range [Lo, Hi] on the value column minus the excluded points of its <>
// conjuncts — the form the hot sampling loop can test with two float64
// compares (no closure call, no predicate slice walk), the zone-map pruner
// can compare against persisted block min/max envelopes, and a shard RPC can
// carry.
//
// Open bounds are normalized away at compile time: on float64, "v > x" is
// exactly "v >= nextafter(x, +Inf)", so a single closed representation
// covers the five range operators, and "v <> x" (defined as v < x || v > x)
// adds x to Not. The normalization is value-for-value identical to
// Predicate.Match semantics, including the edges: NaN data values satisfy no
// comparison — <> included — and fail Lo <= v && v <= Hi the same way, and
// ±Inf literals compile to the matching closed or empty range.
// TestIntervalMatchesPredicateSemantics pins this equivalence exhaustively.
//
// The empty interval (a contradictory conjunction such as v > 5 AND v < 3)
// is canonically Lo = +Inf, Hi = -Inf; any Lo > Hi pair behaves the same.
type Interval struct {
	Lo, Hi float64
	// Not holds the excluded points inside [Lo, Hi], nil when the
	// conjunction has no <> conjunct.
	Not []float64
}

// fullInterval returns the interval matching every non-NaN value.
func fullInterval() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// emptyInterval returns the canonical empty interval.
func emptyInterval() Interval {
	return Interval{Lo: math.Inf(1), Hi: math.Inf(-1)}
}

// Empty reports whether no value can satisfy the interval.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Contains reports whether v lies in [Lo, Hi] and is no excluded point. NaN
// is never contained, matching comparison-predicate semantics.
func (iv Interval) Contains(v float64) bool {
	return iv.Lo <= v && v <= iv.Hi && !slices.Contains(iv.Not, v)
}

// String renders the interval for diagnostics.
func (iv Interval) String() string {
	if iv.Empty() {
		return "[empty]"
	}
	s := fmt.Sprintf("[%s, %s]", formatFloat(iv.Lo), formatFloat(iv.Hi))
	for _, x := range iv.Not {
		s += " <> " + formatFloat(x)
	}
	return s
}

// CompileInterval compiles a conjunction of comparison predicates into its
// data form. ok is always true — every operator of the dialect compiles; the
// result is kept for the callers that still read it. A contradictory
// conjunction compiles to the empty interval, so callers can short-circuit
// to the no-match answer without sampling. An empty conjunction compiles to
// the full interval.
func CompileInterval(preds []Predicate) (Interval, bool) {
	iv := fullInterval()
	var not []float64
	for _, p := range preds {
		if math.IsNaN(p.Value) {
			// No value compares true against a NaN literal under any
			// operator, so the conjunction is empty.
			return emptyInterval(), true
		}
		switch p.Op {
		case LT:
			// v < -Inf is unsatisfiable; otherwise v < x ⇔ v <= pred(x).
			if math.IsInf(p.Value, -1) {
				return emptyInterval(), true
			}
			iv.Hi = math.Min(iv.Hi, math.Nextafter(p.Value, math.Inf(-1)))
		case LE:
			iv.Hi = math.Min(iv.Hi, p.Value)
		case GT:
			if math.IsInf(p.Value, 1) {
				return emptyInterval(), true
			}
			iv.Lo = math.Max(iv.Lo, math.Nextafter(p.Value, math.Inf(1)))
		case GE:
			iv.Lo = math.Max(iv.Lo, p.Value)
		case EQ:
			iv.Lo = math.Max(iv.Lo, p.Value)
			iv.Hi = math.Min(iv.Hi, p.Value)
		case NE:
			not = append(not, p.Value)
		}
	}
	if iv.Empty() {
		return emptyInterval(), true
	}
	// Only the excluded points the range can still produce matter, once each.
	iv.Not = not[:0]
	for _, x := range not {
		if iv.Lo <= x && x <= iv.Hi && !slices.Contains(iv.Not, x) {
			iv.Not = append(iv.Not, x)
		}
	}
	return iv, true
}
