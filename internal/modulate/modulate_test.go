package modulate

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"isla/internal/leverage"
	"isla/internal/stats"
)

func sums(vals ...float64) stats.PowerSums {
	var p stats.PowerSums
	for _, v := range vals {
		p.Add(v)
	}
	return p
}

// repeat returns n copies of v for building lopsided S/L sample sets.
func repeat(v float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// paperOptions are the iteration settings of core's DefaultConfig: η = 0.5,
// λ = 0.8, step lengths from the deviation evaluation, no sketch bound.
var paperOptions = Options{Eta: 0.5, Lambda: 0.8}

// paperBounds are the paper's boundaries (p1 = 0.5, p2 = 2) around sketch0.
func paperBounds(sketch0, sigma float64) leverage.Boundaries {
	return leverage.Boundaries{Center: sketch0, Sigma: sigma, P1: 0.5, P2: 2}
}

func TestExpectedDevRatioProperties(t *testing.T) {
	// R(0) = 1 by symmetry; R strictly increasing in delta.
	if got := ExpectedDevRatio(0, 0.5, 2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("R(0) = %v, want 1", got)
	}
	prev := 0.0
	for delta := -3.0; delta <= 3.0; delta += 0.25 {
		r := ExpectedDevRatio(delta, 0.5, 2)
		if r <= prev {
			t.Fatalf("R not increasing at delta=%v: %v after %v", delta, r, prev)
		}
		prev = r
	}
}

func TestShapeDeltaInvertsRatio(t *testing.T) {
	for _, delta := range []float64{-2, -1, -0.3, 0, 0.1, 0.8, 1.7, 3} {
		dev := ExpectedDevRatio(delta, 0.5, 2)
		got := ShapeDelta(dev, 0.5, 2)
		if math.Abs(got-delta) > 1e-9 {
			t.Errorf("ShapeDelta(R(%v)) = %v", delta, got)
		}
	}
}

func TestShapeDeltaEdgeCases(t *testing.T) {
	if got := ShapeDelta(math.Inf(1), 0.5, 2); got != shapeDeltaMax {
		t.Errorf("Inf dev -> %v, want %v", got, shapeDeltaMax)
	}
	if got := ShapeDelta(0, 0.5, 2); got != -shapeDeltaMax {
		t.Errorf("zero dev -> %v, want %v", got, -shapeDeltaMax)
	}
	if got := ShapeDelta(math.NaN(), 0.5, 2); got != -shapeDeltaMax {
		t.Errorf("NaN dev -> %v", got)
	}
	// Ratios beyond R(±4) clamp.
	if got := ShapeDelta(1e9, 0.5, 2); got != shapeDeltaMax {
		t.Errorf("huge dev -> %v", got)
	}
}

func TestClassifyCases(t *testing.T) {
	cases := []struct {
		d0   float64
		u, v int64
		want Case
	}{
		{-1, 10, 20, Case1},
		{-1, 20, 10, Case2},
		{+1, 10, 20, Case3},
		{+1, 20, 10, Case4},
		{+1, 100, 100, Case5},   // exactly balanced
		{-1, 1000, 1005, Case5}, // dev = 0.995 inside (0.99, 1.01)
		{-1, 1000, 1020, Case1}, // dev ≈ 0.980 outside the band
	}
	for _, c := range cases {
		if got := Classify(c.d0, c.u, c.v); got != c.want {
			t.Errorf("Classify(%v, %d, %d) = %v, want %v", c.d0, c.u, c.v, got, c.want)
		}
	}
}

func TestCaseString(t *testing.T) {
	if Case1.String() != "Case1" || Case5.String() != "Case5" {
		t.Fatal("Case.String broken")
	}
}

func TestStepReducesObjectiveEveryCase(t *testing.T) {
	opts := paperOptions
	for _, cs := range []Case{Case1, Case2, Case3, Case4} {
		d := 1.0
		if cs == Case1 || cs == Case2 {
			d = -1.0
		}
		k := 2.0
		a, b := step(cs, d, k, opts)
		// The move must satisfy A − B = (η−1)·D exactly.
		if got := a - b; math.Abs(got-(opts.Eta-1)*d) > 1e-12 {
			t.Errorf("%v: A−B = %v, want %v", cs, got, (opts.Eta-1)*d)
		}
	}
}

func TestStepDirections(t *testing.T) {
	opts := paperOptions
	k := 2.0
	// Case 1 (d<0): both up, µ̂ dominates.
	a, b := step(Case1, -1, k, opts)
	if a <= 0 || b <= 0 || math.Abs(b-opts.Lambda*a) > 1e-12 {
		t.Errorf("Case1: a=%v b=%v", a, b)
	}
	// Case 2 (d<0): sketch down, µ̂ slightly up, sketch dominates.
	a, b = step(Case2, -1, k, opts)
	if a <= 0 || b >= 0 || math.Abs(a-opts.Lambda*(-b)) > 1e-12 {
		t.Errorf("Case2: a=%v b=%v", a, b)
	}
	// Case 3 (d>0): both up, sketch dominates.
	a, b = step(Case3, 1, k, opts)
	if a <= 0 || b <= 0 || math.Abs(a-opts.Lambda*b) > 1e-12 {
		t.Errorf("Case3: a=%v b=%v", a, b)
	}
	// Case 4 (d>0): both down, µ̂ dominates.
	a, b = step(Case4, 1, k, opts)
	if a >= 0 || b >= 0 || math.Abs(b-opts.Lambda*a) > 1e-12 {
		t.Errorf("Case4: a=%v b=%v", a, b)
	}
}

func TestStepZeroK(t *testing.T) {
	opts := paperOptions
	a, b := step(Case1, -2, 0, opts)
	if a != 0 {
		t.Errorf("a = %v, want 0 with k=0", a)
	}
	if math.Abs((a-b)-(opts.Eta-1)*(-2)) > 1e-12 {
		t.Errorf("objective contract broken with k=0: a=%v b=%v", a, b)
	}
}

func TestRunCase5BalancedReturnsSketch0(t *testing.T) {
	s := sums(repeat(70, 100)...)
	l := sums(repeat(130, 100)...)
	res := Run(s, l, paperBounds(99.5, 0), leverage.DefaultQPolicy(), paperOptions)
	if res.Case != Case5 {
		t.Fatalf("case = %v, want Case5", res.Case)
	}
	if res.Answer != 99.5 {
		t.Fatalf("answer = %v, want sketch0", res.Answer)
	}
	if res.Iterations != 0 {
		t.Fatalf("iterations = %d, want 0", res.Iterations)
	}
}

func TestRunBothEmptyReturnsSketch0(t *testing.T) {
	var s, l stats.PowerSums
	res := Run(s, l, paperBounds(42, 0), leverage.DefaultQPolicy(), paperOptions)
	if res.Answer != 42 || res.Case != Case5 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunOneRegionEmptyConverges(t *testing.T) {
	s := sums(repeat(70, 50)...)
	var l stats.PowerSums
	res := Run(s, l, paperBounds(100, 0), leverage.DefaultQPolicy(), paperOptions)
	// Sketch-only fallback: answer lies between c (=70) and sketch0 (=100)
	// and the final objective residual is tiny.
	if res.Answer <= 70 || res.Answer >= 100 {
		t.Fatalf("answer = %v outside (70, 100)", res.Answer)
	}
}

func TestRunConvergesBelowThreshold(t *testing.T) {
	// Unbalanced S/L so the iteration actually runs.
	s := sums(repeat(75, 120)...)
	l := sums(repeat(125, 180)...)
	res := Run(s, l, paperBounds(101, 20), leverage.DefaultQPolicy(), paperOptions)
	if res.Case == Case5 {
		t.Fatal("expected an iterating case")
	}
	// µ̂_final and sketch_final must agree to within threshold.
	muHat := res.K*res.Alpha + res.C
	if math.Abs(muHat-res.Sketch) > threshold {
		t.Fatalf("estimators did not meet: µ̂=%v sketch=%v", muHat, res.Sketch)
	}
	if res.Answer != muHat {
		t.Fatalf("answer %v != µ̂ %v", res.Answer, muHat)
	}
}

func TestRunAutoConvergesToTarget(t *testing.T) {
	// dev = 120/180 = 2/3 maps through the shape inversion to a concrete
	// target µ* = sketch0 − δ̂σ; both estimators must land there.
	s := sums(repeat(75, 120)...)
	l := sums(repeat(125, 180)...)
	res := Run(s, l, paperBounds(101, 20), leverage.DefaultQPolicy(), paperOptions)
	wantDelta := EvaluateDeviation(s, l, 101, 20, 0.5, 2)
	wantTarget := 101 - wantDelta*20
	if math.Abs(res.Target-wantTarget) > 1e-9 {
		t.Fatalf("target = %v, want %v", res.Target, wantTarget)
	}
	if math.Abs(res.Answer-wantTarget) > 1e-6 {
		t.Fatalf("answer = %v, want target %v", res.Answer, wantTarget)
	}
	if math.Abs(res.Sketch-wantTarget) > 1e-6 {
		t.Fatalf("sketch = %v, want target %v", res.Sketch, wantTarget)
	}
}

func TestRunAutoSketchBoundClamps(t *testing.T) {
	// Extreme imbalance wants a huge correction; the relaxed confidence
	// interval of sketch0 must cap it (§VII-B modulation boundary).
	s := sums(repeat(75, 500)...)
	l := sums(repeat(125, 10)...)
	opts := paperOptions
	opts.SketchBound = 0.5
	res := Run(s, l, paperBounds(101, 20), leverage.DefaultQPolicy(), opts)
	if math.Abs(res.Target-101) > 0.5+1e-12 {
		t.Fatalf("target %v escaped the ±0.5 bound around 101", res.Target)
	}
}

func TestRunAutoZeroSigmaKeepsSketch(t *testing.T) {
	s := sums(repeat(75, 120)...)
	l := sums(repeat(125, 180)...)
	res := Run(s, l, paperBounds(101, 0), leverage.DefaultQPolicy(), paperOptions)
	// With σ = 0 the deviation evaluation cannot move the target.
	if res.Target != 101 {
		t.Fatalf("target = %v, want sketch0", res.Target)
	}
	if math.Abs(res.Answer-101) > 1e-5 {
		t.Fatalf("answer = %v, want ~101", res.Answer)
	}
}

func TestRunIterationCountMatchesBound(t *testing.T) {
	s := sums(repeat(75, 120)...)
	l := sums(repeat(125, 180)...)
	res := Run(s, l, paperBounds(101, 0), leverage.DefaultQPolicy(), paperOptions)
	bound, err := iterationBound(res.D0, threshold, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != bound {
		t.Fatalf("iterations = %d, analytic bound = %d (D0=%v)", res.Iterations, bound, res.D0)
	}
}

// TestRunMeetingPointClosedForm verifies the fixed-λ geometry implied by
// Theorem 1: with step factor λ, the estimators meet at the point where the
// deviation ratio equals λ, giving closed-form meeting points per case.
func TestRunMeetingPointClosedForm(t *testing.T) {
	s := sums(repeat(75, 120)...)
	l := sums(repeat(125, 180)...) // |S| < |L|
	opts := paperOptions
	opts.Mode = LambdaFixed
	res := Run(s, l, paperBounds(101, 0), leverage.DefaultQPolicy(), opts)
	lam := 0.8
	var want float64
	switch res.Case {
	case Case1: // meet at c − D0/(1−λ)
		want = res.C - res.D0/(1-lam)
	case Case3: // meet at c + λ·D0/(1−λ)
		want = res.C + lam*res.D0/(1-lam)
	default:
		t.Fatalf("unexpected case %v", res.Case)
	}
	// The rounds left after |D| ≤ thr would move µ̂ at most thr/(1−λ).
	if math.Abs(res.Answer-want) > threshold/(1-lam) {
		t.Fatalf("answer = %v, want meeting point %v (case %v, D0=%v)",
			res.Answer, want, res.Case, res.D0)
	}
}

func TestRunCase4NegativeAlpha(t *testing.T) {
	// |S| > |L| and c > sketch0 forces Case 4; the paper says α ends
	// negative there (for k > 0) to damp the unbalanced sampling.
	s := sums(repeat(80, 300)...)
	l := sums(repeat(120, 100)...)
	res := Run(s, l, paperBounds(85, 20), leverage.DefaultQPolicy(), paperOptions)
	if res.Case != Case4 {
		t.Fatalf("case = %v, want Case4 (D0=%v)", res.Case, res.D0)
	}
	if res.K > 0 && res.Alpha >= 0 {
		t.Fatalf("alpha = %v, want negative with k=%v", res.Alpha, res.K)
	}
	// Both estimators moved down: answer below c.
	if res.Answer >= res.C {
		t.Fatalf("answer %v should be below c %v", res.Answer, res.C)
	}
}

func TestRunQSelection(t *testing.T) {
	// dev = 300/100 = 3 (severe, |S|>|L|) -> q = 1/10.
	s := sums(repeat(80, 300)...)
	l := sums(repeat(120, 100)...)
	res := Run(s, l, paperBounds(85, 0), leverage.DefaultQPolicy(), paperOptions)
	if res.Q != 0.1 {
		t.Fatalf("q = %v, want 0.1", res.Q)
	}
	// dev = 100/103 ≈ 0.971 (mild) -> q = 1... 0.971 is inside (0.97,1.03).
	res2 := Run(sums(repeat(80, 100)...), sums(repeat(120, 103)...), paperBounds(99, 0), leverage.DefaultQPolicy(), paperOptions)
	if res2.Q != 1 {
		t.Fatalf("q = %v, want 1", res2.Q)
	}
}

// iterationBound returns the paper's analytic bound t = ⌈log2(|D0|/thr)⌉ on
// the number of iterations (for η = 1/2; general η uses log base 1/η).
func iterationBound(d0, thr, eta float64) (int, error) {
	if thr <= 0 || !(eta > 0 && eta < 1) {
		return 0, errors.New("modulate: invalid threshold or eta")
	}
	ad := math.Abs(d0)
	if ad <= thr {
		return 0, nil
	}
	return int(math.Ceil(math.Log(ad/thr) / math.Log(1/eta))), nil
}

func TestIterationBound(t *testing.T) {
	n, err := iterationBound(1.0, 1e-6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 20 { // 2^20 > 1e6 > 2^19
		t.Fatalf("bound = %d, want 20", n)
	}
	if n, _ := iterationBound(0.5e-6, 1e-6, 0.5); n != 0 {
		t.Fatalf("already-converged bound = %d, want 0", n)
	}
	if _, err := iterationBound(1, 0, 0.5); err == nil {
		t.Fatal("zero threshold accepted")
	}
	if _, err := iterationBound(1, 1e-6, 1); err == nil {
		t.Fatal("eta=1 accepted")
	}
}

// TestRunObjectiveHalvesEachRound simulates the loop manually and checks
// that the realized |µ̂ − sketch| matches the scheduled η^t·D0 trajectory.
func TestRunObjectiveHalvesEachRound(t *testing.T) {
	s := sums(repeat(75, 120)...)
	l := sums(repeat(125, 180)...)
	q := leverage.DefaultQPolicy().Q(float64(120) / 180)
	k, c := leverage.KC(s, l, q)
	opts := paperOptions
	d0 := c - 101.0
	cs := Classify(d0, 120, 180)

	alpha, sketch, d := 0.0, 101.0, d0
	for i := 0; i < 10; i++ {
		a, b := step(cs, d, k, opts)
		alpha += a / k
		sketch += b
		d *= opts.Eta
		realized := (k*alpha + c) - sketch
		if math.Abs(realized-d) > 1e-9*math.Max(1, math.Abs(d0)) {
			t.Fatalf("round %d: realized D %v, scheduled %v", i, realized, d)
		}
	}
}

// TestRunRobustAcrossRandomInputs is a property test: for random lopsided
// sample sets, Run must converge without error, produce a finite answer,
// and the answer must lie within the span of the data regions extended by
// the modulation geometry (a loose but meaningful sanity envelope).
func TestRunRobustAcrossRandomInputs(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		u := 1 + r.Intn(200)
		v := 1 + r.Intn(200)
		var s, l stats.PowerSums
		for i := 0; i < u; i++ {
			s.Add(60 + 30*r.Float64())
		}
		for j := 0; j < v; j++ {
			l.Add(110 + 30*r.Float64())
		}
		sketch0 := 95 + 10*r.Float64()
		res := Run(s, l, paperBounds(sketch0, 0), leverage.DefaultQPolicy(), paperOptions)
		if math.IsNaN(res.Answer) || math.IsInf(res.Answer, 0) {
			return false
		}
		// Envelope: the answer should stay within a generous window around
		// the combined sample range.
		return res.Answer > 0 && res.Answer < 250
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
