package query

import (
	"fmt"
	"slices"
	"strings"
)

// CmpOp is a comparison operator in a WHERE predicate.
type CmpOp int

// Comparison operators of the dialect. NE accepts both != and <> in input;
// <> is the canonical spelling.
const (
	LT CmpOp = iota // <
	LE              // <=
	GT              // >
	GE              // >=
	EQ              // =
	NE              // <>
)

// String returns the canonical SQL spelling.
func (op CmpOp) String() string {
	switch op {
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	case EQ:
		return "="
	case NE:
		return "<>"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Predicate is one WHERE conjunct: a comparison between the value column
// and a numeric literal.
type Predicate struct {
	Column string
	Op     CmpOp
	Value  float64
}

// Match reports whether v satisfies the predicate.
func (p Predicate) Match(v float64) bool {
	switch p.Op {
	case LT:
		return v < p.Value
	case LE:
		return v <= p.Value
	case GT:
		return v > p.Value
	case GE:
		return v >= p.Value
	case EQ:
		return v == p.Value
	case NE:
		// Not Go's !=: a NaN row satisfies no comparison, <> included.
		return v < p.Value || v > p.Value
	default:
		return false
	}
}

// String renders the predicate in canonical form, e.g. "v > 10".
func (p Predicate) String() string {
	return fmt.Sprintf("%s %s %s", p.Column, p.Op, formatFloat(p.Value))
}

// PredicateString renders a conjunction in canonical form
// ("v > 10 AND v <= 20"; "" when empty) — the predicate fingerprint plan
// caches key derived state by.
func PredicateString(preds []Predicate) string {
	if len(preds) == 0 {
		return ""
	}
	parts := make([]string, len(preds))
	for i, p := range preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

// Filter compiles a conjunction of predicates into one match function. It
// returns nil for an empty conjunction so callers can branch on "has
// filter" cheaply. The returned closure owns a copy of preds.
func Filter(preds []Predicate) func(float64) bool {
	if len(preds) == 0 {
		return nil
	}
	ps := slices.Clone(preds)
	return func(v float64) bool {
		for _, p := range ps {
			if !p.Match(v) {
				return false
			}
		}
		return true
	}
}
