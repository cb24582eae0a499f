package stats

import (
	"fmt"
	"math"
	"testing"
)

// checkMoments samples n variates and verifies the empirical mean/stddev
// track the distribution's declared exact moments within tol (relative for
// values away from zero, absolute near zero).
func checkMoments(t *testing.T, d Dist, n int, tol float64) {
	t.Helper()
	r := NewRNG(101)
	var m Moments
	for i := 0; i < n; i++ {
		m.Add(d.Sample(r))
	}
	assertClose := func(name string, got, want float64) {
		t.Helper()
		scale := math.Max(1, math.Abs(want))
		if math.Abs(got-want) > tol*scale {
			t.Errorf("%v %s = %v, want %v (tol %v)", d, name, got, want, tol)
		}
	}
	assertClose("mean", m.Mean(), d.Mean())
	assertClose("stddev", m.StdDev(), d.StdDev())
}

func TestNormalMoments(t *testing.T)      { checkMoments(t, Normal{100, 20}, 200000, 0.01) }
func TestExponentialMoments(t *testing.T) { checkMoments(t, Exponential{0.1}, 200000, 0.01) }
func TestUniformMoments(t *testing.T)     { checkMoments(t, Uniform{1, 199}, 200000, 0.01) }
func TestLogNormalMoments(t *testing.T)   { checkMoments(t, LogNormal{1, 0.5}, 400000, 0.02) }

// shifted wraps a distribution translated by Offset: the negative data of
// the paper's translation trick.
type shifted struct {
	Base   Dist
	Offset float64
}

// Sample draws Base + Offset.
func (s shifted) Sample(r *RNG) float64 { return s.Base.Sample(r) + s.Offset }

// Mean returns Base.Mean() + Offset.
func (s shifted) Mean() float64 { return s.Base.Mean() + s.Offset }

// StdDev returns Base.StdDev().
func (s shifted) StdDev() float64 { return s.Base.StdDev() }

func (s shifted) String() string { return fmt.Sprintf("%v%+g", s.Base, s.Offset) }

func TestShiftedMoments(t *testing.T) {
	checkMoments(t, shifted{Base: Normal{0, 5}, Offset: -40}, 200000, 0.01)
}

func TestMixtureExactMoments(t *testing.T) {
	m := NewMixture(
		Component{Weight: 0.5, Dist: Normal{0, 1}},
		Component{Weight: 0.5, Dist: Normal{10, 1}},
	)
	if math.Abs(m.Mean()-5) > 1e-12 {
		t.Fatalf("mixture mean = %v, want 5", m.Mean())
	}
	// Var = E[sigma^2 + mu^2] - mean^2 = (1+0 + 1+100)/2 - 25 = 26.
	if math.Abs(m.StdDev()-math.Sqrt(26)) > 1e-12 {
		t.Fatalf("mixture stddev = %v, want sqrt(26)", m.StdDev())
	}
	checkMoments(t, m, 300000, 0.01)
}

func TestMixtureWeightsNormalized(t *testing.T) {
	// Same mixture with unnormalized weights must behave identically.
	a := NewMixture(
		Component{Weight: 1, Dist: Normal{0, 1}},
		Component{Weight: 3, Dist: Normal{8, 2}},
	)
	b := NewMixture(
		Component{Weight: 0.25, Dist: Normal{0, 1}},
		Component{Weight: 0.75, Dist: Normal{8, 2}},
	)
	if math.Abs(a.Mean()-b.Mean()) > 1e-12 || math.Abs(a.StdDev()-b.StdDev()) > 1e-12 {
		t.Fatal("weight normalization changed moments")
	}
}

func TestMixturePanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanics("empty mixture", func() { NewMixture() })
	assertPanics("non-positive weight", func() {
		NewMixture(Component{Weight: 0, Dist: Normal{0, 1}})
	})
}

func TestExponentialPositive(t *testing.T) {
	r := NewRNG(5)
	e := Exponential{0.05}
	for i := 0; i < 10000; i++ {
		if v := e.Sample(r); v <= 0 {
			t.Fatalf("exponential variate %v not positive", v)
		}
	}
}

func TestUniformInRange(t *testing.T) {
	r := NewRNG(5)
	u := Uniform{1, 199}
	for i := 0; i < 10000; i++ {
		v := u.Sample(r)
		if v < 1 || v >= 199 {
			t.Fatalf("uniform variate %v outside [1,199)", v)
		}
	}
}

func TestDistStrings(t *testing.T) {
	cases := []struct {
		d    Dist
		want string
	}{
		{Normal{100, 20}, "N(100, 20^2)"},
		{Exponential{0.1}, "Exp(0.1)"},
		{Uniform{1, 199}, "U[1, 199]"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestNormalEmpiricalCDFMatchesAnalytic(t *testing.T) {
	// Kolmogorov-style spot check: empirical CDF at a few points matches Phi.
	r := NewRNG(71)
	d := Normal{0, 1}
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	for _, z := range []float64{-2, -1, 0, 0.5, 1, 2} {
		count := 0
		for _, x := range xs {
			if x <= z {
				count++
			}
		}
		emp := float64(count) / n
		if math.Abs(emp-StdNormalCDF(z)) > 0.005 {
			t.Errorf("empirical CDF at %v = %v, want %v", z, emp, StdNormalCDF(z))
		}
	}
}
