package query

import (
	"math"
	"slices"
	"testing"

	"isla/internal/stats"
)

// intervalProbeValues are the values every compiled interval is checked
// against: zeros of both signs, boundary neighbours, infinities and NaN.
func intervalProbeValues(literals []float64) []float64 {
	vs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1, 3.5}
	for _, lit := range literals {
		vs = append(vs, lit)
		if !math.IsNaN(lit) {
			vs = append(vs, math.Nextafter(lit, math.Inf(1)), math.Nextafter(lit, math.Inf(-1)))
		}
	}
	return vs
}

// TestIntervalMatchesPredicateSemantics is the compilation contract: for
// every conjunction of the dialect's six operators, the compiled form's
// Contains must agree with the Filter closure value-for-value — on boundary
// literals, ±Inf literals, NaN literals and NaN data values alike.
func TestIntervalMatchesPredicateSemantics(t *testing.T) {
	literals := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, -17,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64}
	ops := []CmpOp{LT, LE, GT, GE, EQ, NE}

	check := func(preds []Predicate) {
		t.Helper()
		iv, ok := CompileInterval(preds)
		if !ok {
			t.Fatalf("%q did not compile", PredicateString(preds))
		}
		match := Filter(preds)
		lits := make([]float64, len(preds))
		for i, p := range preds {
			lits[i] = p.Value
		}
		for _, v := range intervalProbeValues(lits) {
			if got, want := iv.Contains(v), match(v); got != want {
				t.Fatalf("%q as %v: Contains(%v) = %v, Match = %v",
					PredicateString(preds), iv, v, got, want)
			}
		}
	}

	// NE is defined once, as v < x || v > x: a NaN row satisfies no
	// comparison, and nothing is unequal to a NaN literal.
	for _, lit := range literals {
		ne := Predicate{Column: "v", Op: NE, Value: lit}
		if ne.Match(math.NaN()) {
			t.Fatalf("NaN satisfies %v", ne)
		}
		if want := !math.IsNaN(lit) && lit != 3.5; ne.Match(3.5) != want {
			t.Fatalf("3.5 against %v = %v, want %v", ne, !want, want)
		}
	}

	// Every single predicate.
	for _, op := range ops {
		for _, lit := range literals {
			check([]Predicate{{Column: "v", Op: op, Value: lit}})
		}
	}

	// Random conjunctions of two and three predicates, including the
	// contradictory ones (which must compile to the empty interval and
	// agree with the closure by matching nothing).
	r := stats.NewRNG(42)
	for trial := 0; trial < 2000; trial++ {
		n := 2 + r.Intn(2)
		preds := make([]Predicate, n)
		for i := range preds {
			preds[i] = Predicate{
				Column: "v",
				Op:     ops[r.Intn(len(ops))],
				Value:  literals[r.Intn(len(literals))],
			}
		}
		check(preds)
	}
}

func TestCompileIntervalEdges(t *testing.T) {
	p := func(op CmpOp, v float64) Predicate { return Predicate{Column: "v", Op: op, Value: v} }

	// <> compiles to excluded points: kept when the range can still
	// produce them, dropped (or deduplicated) otherwise.
	for _, tc := range []struct {
		preds  []Predicate
		lo, hi float64
		not    []float64
	}{
		{[]Predicate{p(NE, 5)}, math.Inf(-1), math.Inf(1), []float64{5}},
		{[]Predicate{p(GT, 0), p(NE, 5)}, math.SmallestNonzeroFloat64, math.Inf(1), []float64{5}},
		{[]Predicate{p(NE, 5), p(GE, 6), p(NE, 7), p(NE, 7)}, 6, math.Inf(1), []float64{7}},
		{[]Predicate{p(NE, 0), p(NE, math.Copysign(0, -1))}, math.Inf(-1), math.Inf(1), []float64{0}},
		{[]Predicate{p(LE, 4), p(NE, 5)}, math.Inf(-1), 4, nil},
	} {
		iv, ok := CompileInterval(tc.preds)
		if !ok || iv.Lo != tc.lo || iv.Hi != tc.hi || !slices.Equal(iv.Not, tc.not) {
			t.Fatalf("%q = %v, ok=%v; want [%v, %v] without %v",
				PredicateString(tc.preds), iv, ok, tc.lo, tc.hi, tc.not)
		}
	}

	if iv, ok := CompileInterval(nil); !ok || iv.Lo != math.Inf(-1) || iv.Hi != math.Inf(1) || iv.Not != nil {
		t.Fatalf("empty conjunction = %v, %v; want full interval", iv, ok)
	}

	for _, contradiction := range [][]Predicate{
		{p(GT, 5), p(LT, 3)},
		{p(GE, 5), p(LE, 3)},
		{p(EQ, 1), p(EQ, 2)},
		{p(LT, math.Inf(-1))},
		{p(GT, math.Inf(1))},
		{p(EQ, math.NaN())},
		{p(GT, 0), p(LT, math.NaN())},
		{p(NE, math.NaN())},
		{p(NE, 5), p(GT, 7), p(LT, 6)},
	} {
		iv, ok := CompileInterval(contradiction)
		if !ok || !iv.Empty() {
			t.Fatalf("%q = %v, ok=%v; want empty interval", PredicateString(contradiction), iv, ok)
		}
	}

	// Adjacent-but-satisfiable: 3 < v < nextafter(nextafter(3)) keeps
	// exactly one float.
	up := math.Nextafter(3, math.Inf(1))
	iv, ok := CompileInterval([]Predicate{p(GT, 3), p(LT, math.Nextafter(up, math.Inf(1)))})
	if !ok || iv.Empty() || iv.Lo != up || iv.Hi != up {
		t.Fatalf("one-float interval = %v, ok=%v; want [%v, %v]", iv, ok, up, up)
	}

	if emptyInterval().Contains(math.Inf(1)) || emptyInterval().Contains(0) {
		t.Fatal("empty interval contains a value")
	}
	if !fullInterval().Contains(math.Inf(-1)) || fullInterval().Contains(math.NaN()) {
		t.Fatal("full interval semantics wrong at the edges")
	}
}
