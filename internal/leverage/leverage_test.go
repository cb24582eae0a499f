package leverage

import (
	"math"
	"testing"
	"testing/quick"

	"isla/internal/stats"
)

func mustBounds(t *testing.T, center, sigma, p1, p2 float64) Boundaries {
	t.Helper()
	b, err := NewBoundaries(center, sigma, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBoundariesValidation(t *testing.T) {
	if _, err := NewBoundaries(0, -1, 0.5, 2); err == nil {
		t.Error("negative sigma accepted")
	}
	if _, err := NewBoundaries(0, 1, 0, 2); err == nil {
		t.Error("p1=0 accepted")
	}
	if _, err := NewBoundaries(0, 1, 2, 1); err == nil {
		t.Error("p2<p1 accepted")
	}
	if _, err := NewBoundaries(0, 1, 0.5, 2); err != nil {
		t.Errorf("valid boundaries rejected: %v", err)
	}
}

func TestClassifyRegions(t *testing.T) {
	// center=100, sigma=20, p1=0.5, p2=2 -> S=(60,90), N=[90,110], L=(110,140).
	b := mustBounds(t, 100, 20, 0.5, 2)
	cases := []struct {
		v    float64
		want Region
	}{
		{0, TooSmall}, {60, TooSmall}, // boundary inclusive to TS
		{60.0001, Small}, {75, Small}, {89.999, Small},
		{90, Normal}, {100, Normal}, {110, Normal},
		{110.0001, Large}, {125, Large}, {139.999, Large},
		{140, TooLarge}, {1000, TooLarge},
	}
	for _, c := range cases {
		if got := b.Classify(c.v); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestBoundaryEndpoints(t *testing.T) {
	b := mustBounds(t, 100, 20, 0.5, 2)
	if b.sLo() != 60 || b.sHi() != 90 || b.lLo() != 110 || b.lHi() != 140 {
		t.Fatalf("endpoints = %v %v %v %v", b.sLo(), b.sHi(), b.lLo(), b.lHi())
	}
}

func TestRegionString(t *testing.T) {
	want := map[Region]string{TooSmall: "TS", Small: "S", Normal: "N", Large: "L", TooLarge: "TL"}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), s)
		}
	}
	if Region(99).String() == "" {
		t.Error("unknown region should still stringify")
	}
}

func TestRegionProportionsNormal(t *testing.T) {
	// With exact boundaries on a standard normal: S and L each hold
	// Phi(-0.5)-Phi(-2) ~ 0.2857 of the mass; N holds ~0.3829.
	b := mustBounds(t, 0, 1, 0.5, 2)
	r := stats.NewRNG(42)
	const n = 400000
	counts := map[Region]int{}
	for i := 0; i < n; i++ {
		counts[b.Classify(r.NormFloat64())]++
	}
	wantSL := stats.StdNormalCDF(-0.5) - stats.StdNormalCDF(-2)
	for _, reg := range []Region{Small, Large} {
		got := float64(counts[reg]) / n
		if math.Abs(got-wantSL) > 0.005 {
			t.Errorf("region %v fraction %.4f, want %.4f", reg, got, wantSL)
		}
	}
	wantN := 2*stats.StdNormalCDF(0.5) - 1
	if got := float64(counts[Normal]) / n; math.Abs(got-wantN) > 0.005 {
		t.Errorf("region N fraction %.4f, want %.4f", got, wantN)
	}
}

func TestAccumRouting(t *testing.T) {
	b := mustBounds(t, 100, 20, 0.5, 2)
	a := NewAccum(b)
	for _, v := range []float64{50, 70, 80, 100, 120, 130, 135, 150} {
		a.Add(v)
	}
	if a.Seen != 8 {
		t.Fatalf("seen = %d", a.Seen)
	}
	if a.S.Count != 2 || a.S.Sum != 150 {
		t.Fatalf("paramS = %+v", a.S)
	}
	if a.L.Count != 3 || a.L.Sum != 385 {
		t.Fatalf("paramL = %+v", a.L)
	}
}

func TestAccumMerge(t *testing.T) {
	b := mustBounds(t, 100, 20, 0.5, 2)
	a1, a2 := NewAccum(b), NewAccum(b)
	all := NewAccum(b)
	vals := []float64{65, 70, 85, 115, 120, 138, 95, 200, 10}
	for i, v := range vals {
		all.Add(v)
		if i%2 == 0 {
			a1.Add(v)
		} else {
			a2.Add(v)
		}
	}
	if err := a1.Merge(a2); err != nil {
		t.Fatal(err)
	}
	if a1.S != all.S || a1.L != all.L || a1.Seen != all.Seen {
		t.Fatalf("merged %+v, want %+v", a1, all)
	}
	other := NewAccum(mustBounds(t, 0, 1, 0.5, 2))
	if err := a1.Merge(other); err == nil {
		t.Fatal("merge with different boundaries accepted")
	}
}

func TestDev(t *testing.T) {
	b := mustBounds(t, 100, 20, 0.5, 2)
	a := NewAccum(b)
	if a.Dev() != 1 {
		t.Fatalf("empty dev = %v, want 1", a.Dev())
	}
	a.Add(70) // S
	if !math.IsInf(a.Dev(), 1) {
		t.Fatalf("dev with |L|=0 = %v, want +Inf", a.Dev())
	}
	a.Add(120) // L
	a.Add(125) // L
	if got := a.Dev(); got != 0.5 {
		t.Fatalf("dev = %v, want 0.5", got)
	}
}

func TestQPolicy(t *testing.T) {
	p := DefaultQPolicy()
	cases := []struct {
		dev, want float64
	}{
		{1.0, 1}, {0.98, 1}, {1.02, 1}, // mild band
		{0.95, 5}, {0.96, 5}, // moderate, |S|<|L| -> q'
		{1.04, 1.0 / 5}, {1.05, 1.0 / 5}, // moderate, |S|>|L| -> 1/q'
		{0.5, 10}, {0.90, 10}, // severe, |S|<|L|
		{1.5, 1.0 / 10}, {2.0, 1.0 / 10}, // severe, |S|>|L|
	}
	for _, c := range cases {
		if got := p.Q(c.dev); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Q(%v) = %v, want %v", c.dev, got, c.want)
		}
	}
}

func TestQPolicyInfDev(t *testing.T) {
	p := DefaultQPolicy()
	if got := p.Q(math.Inf(1)); got != 0.1 {
		t.Fatalf("Q(+Inf) = %v, want 0.1", got)
	}
}

func TestExplicitPaperTableII(t *testing.T) {
	// Paper Example 1 (§IV-B): samples {2,3,4,5,6,7,8,15}, sketch0=6.2,
	// p1*sigma=1, p2*sigma=3 => S=(3.2,5.2) -> {4,5}, L=(7.2,9.2) -> {8}.
	x := []float64{4, 5}
	y := []float64{8}
	e, err := NewExplicit(x, y, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Table II, column by column.
	approx("OrigLev(4)", e.OrigLevX[0], 89.0/105)
	approx("OrigLev(5)", e.OrigLevX[1], 16.0/21)
	approx("OrigLev(8)", e.OrigLevY[0], 64.0/105)
	approx("FacX", e.FacX, 169.0/70)
	approx("FacY", e.FacY, 64.0/35)
	approx("NorLev(4)", e.LevX[0], 178.0/507)
	approx("NorLev(5)", e.LevX[1], 160.0/507)
	approx("NorLev(8)", e.LevY[0], 1.0/3)
	// Probabilities: lev*alpha + (1-alpha)/3.
	approx("Prob(4)", e.ProbX[0], 178.0/507*0.1+0.9/3)
	approx("Prob(8)", e.ProbY[0], 1.0/3*0.1+0.9/3)
	// The paper reports the aggregate as 5.67 (rounded).
	if math.Abs(e.Estimate-5.67) > 0.01 {
		t.Errorf("estimate = %v, want ~5.67", e.Estimate)
	}
}

func TestExplicitTheorem2SumIsOne(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		u := 1 + r.Intn(20)
		v := 1 + r.Intn(20)
		x := make([]float64, u)
		y := make([]float64, v)
		for i := range x {
			x[i] = 60 + 30*r.Float64()
		}
		for j := range y {
			y[j] = 110 + 30*r.Float64()
		}
		q := []float64{1, 5, 0.2, 10, 0.1}[r.Intn(5)]
		e, err := NewExplicit(x, y, q, 0.3)
		if err != nil {
			return false
		}
		sumS, sumL := e.LevSum()
		if math.Abs(sumS+sumL-1) > 1e-9 {
			return false
		}
		// Constraint 2 with q: levSumS/levSumL = q*u/v.
		wantRatio := q * float64(u) / float64(v)
		if math.Abs(sumS/sumL-wantRatio) > 1e-9*math.Max(1, wantRatio) {
			return false
		}
		// Probabilities always sum to 1.
		return math.Abs(e.ProbSum()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExplicitAlphaZeroIsUniformAverage(t *testing.T) {
	x := []float64{4, 5}
	y := []float64{8, 9}
	e, err := NewExplicit(x, y, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Estimate-6.5) > 1e-12 {
		t.Fatalf("alpha=0 estimate = %v, want plain mean 6.5", e.Estimate)
	}
}

func TestExplicitErrors(t *testing.T) {
	if _, err := NewExplicit(nil, []float64{1}, 1, 0); err == nil {
		t.Error("empty S accepted")
	}
	if _, err := NewExplicit([]float64{1}, nil, 1, 0); err == nil {
		t.Error("empty L accepted")
	}
	if _, err := NewExplicit([]float64{1}, []float64{2}, 0, 0); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := NewExplicit([]float64{0}, []float64{0}, 1, 0); err == nil {
		t.Error("all-zero samples accepted")
	}
}

// TestKCMatchesExplicit is the keystone cross-check: the streaming closed
// form of Theorem 3 must agree with the direct five-step evaluation for
// random sample sets, all q regimes and any alpha.
func TestKCMatchesExplicit(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		u := 1 + r.Intn(30)
		v := 1 + r.Intn(30)
		x := make([]float64, u)
		y := make([]float64, v)
		var s, l stats.PowerSums
		for i := range x {
			x[i] = 50 + 40*r.Float64()
			s.Add(x[i])
		}
		for j := range y {
			y[j] = 110 + 40*r.Float64()
			l.Add(y[j])
		}
		q := []float64{1, 5, 10, 0.2, 0.1, 2.5}[r.Intn(6)]
		alpha := 2*r.Float64() - 1 // include negative alpha (Case 4)
		e, err := NewExplicit(x, y, q, alpha)
		if err != nil {
			return false
		}
		got := LEstimate(s, l, q, alpha)
		return math.Abs(got-e.Estimate) < 1e-9*math.Max(1, math.Abs(e.Estimate))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKCDegenerateCases(t *testing.T) {
	var empty stats.PowerSums
	var s, l stats.PowerSums
	s.Add(4)
	s.Add(5)
	l.Add(8)

	if k, c := KC(empty, empty, 1); k != 0 || c != 0 {
		t.Errorf("both empty: k=%v c=%v", k, c)
	}
	if k, c := KC(s, empty, 1); k != 0 || c != 4.5 {
		t.Errorf("L empty: k=%v c=%v, want 0, 4.5", k, c)
	}
	if k, c := KC(empty, l, 1); k != 0 || c != 8 {
		t.Errorf("S empty: k=%v c=%v, want 0, 8", k, c)
	}
	if k, c := KC(s, l, 0); k != 0 || math.Abs(c-17.0/3) > 1e-12 {
		t.Errorf("q=0: k=%v c=%v", k, c)
	}
}

func TestKCAlphaZeroIsC(t *testing.T) {
	var s, l stats.PowerSums
	for _, v := range []float64{61, 75, 88} {
		s.Add(v)
	}
	for _, v := range []float64{112, 133} {
		l.Add(v)
	}
	_, c := KC(s, l, 1)
	want := (61 + 75 + 88 + 112 + 133.0) / 5
	if math.Abs(c-want) > 1e-12 {
		t.Fatalf("c = %v, want %v", c, want)
	}
	if got := LEstimate(s, l, 1, 0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("LEstimate(alpha=0) = %v, want %v", got, want)
	}
}

func TestKCLinearInAlpha(t *testing.T) {
	var s, l stats.PowerSums
	for _, v := range []float64{61, 75, 88} {
		s.Add(v)
	}
	for _, v := range []float64{112, 133} {
		l.Add(v)
	}
	k, c := KC(s, l, 2)
	for _, a := range []float64{-1, -0.5, 0, 0.3, 1} {
		if got := LEstimate(s, l, 2, a); math.Abs(got-(k*a+c)) > 1e-12 {
			t.Fatalf("LEstimate(%v) = %v, want %v", a, got, k*a+c)
		}
	}
}
