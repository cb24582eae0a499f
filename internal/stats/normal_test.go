package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStdNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{2, 0.9772498680518208},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := StdNormalCDF(c.z); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Phi(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestInvNormalCDFRoundTrip(t *testing.T) {
	for p := 0.0001; p < 1; p += 0.0007 {
		z := InvNormalCDF(p)
		if got := StdNormalCDF(z); math.Abs(got-p) > 1e-10 {
			t.Fatalf("Phi(InvPhi(%v)) = %v (err %g)", p, got, got-p)
		}
	}
}

func TestInvNormalCDFSymmetry(t *testing.T) {
	f := func(u float64) bool {
		p := math.Abs(math.Mod(u, 0.5))
		if p == 0 {
			p = 0.1
		}
		a := InvNormalCDF(p)
		b := InvNormalCDF(1 - p)
		return math.Abs(a+b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInvNormalCDFPanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InvNormalCDF(%v) did not panic", p)
				}
			}()
			InvNormalCDF(p)
		}()
	}
}

func TestZValueKnownQuantiles(t *testing.T) {
	cases := []struct{ beta, want float64 }{
		{0.95, 1.959963984540054},
		{0.99, 2.5758293035489004},
		{0.90, 1.6448536269514722},
		{0.80, 1.2815515655446004},
	}
	for _, c := range cases {
		got, err := ZValue(c.beta)
		if err != nil {
			t.Fatalf("ZValue(%v): %v", c.beta, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("ZValue(%v) = %v, want %v", c.beta, got, c.want)
		}
	}
}

func TestZValueRejectsBadConfidence(t *testing.T) {
	for _, beta := range []float64{0, 1, -1, 1.5} {
		if _, err := ZValue(beta); err == nil {
			t.Errorf("ZValue(%v) succeeded, want error", beta)
		}
	}
}

func TestRequiredSampleSizePaperDefaults(t *testing.T) {
	// Paper defaults: sigma=20, e=0.1, beta=0.95 -> m = u^2*400/0.01.
	m, err := RequiredSampleSize(20, 0.1, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := ZValue(0.95)
	want := int64(math.Ceil(u * u * 400 / 0.01))
	if m != want {
		t.Fatalf("m = %d, want %d", m, want)
	}
	// Sanity: about 153k samples.
	if m < 150000 || m > 160000 {
		t.Fatalf("m = %d outside plausible range", m)
	}
}

func TestRequiredSampleSizeMonotonicity(t *testing.T) {
	m1, _ := RequiredSampleSize(20, 0.1, 0.95)
	m2, _ := RequiredSampleSize(20, 0.2, 0.95) // looser precision -> fewer samples
	if m2 >= m1 {
		t.Errorf("looser precision should need fewer samples: %d vs %d", m2, m1)
	}
	m3, _ := RequiredSampleSize(20, 0.1, 0.99) // higher confidence -> more samples
	if m3 <= m1 {
		t.Errorf("higher confidence should need more samples: %d vs %d", m3, m1)
	}
	m4, _ := RequiredSampleSize(40, 0.1, 0.95) // more spread -> more samples
	if m4 <= m1 {
		t.Errorf("larger sigma should need more samples: %d vs %d", m4, m1)
	}
}

func TestRequiredSampleSizeErrors(t *testing.T) {
	if _, err := RequiredSampleSize(-1, 0.1, 0.95); err == nil {
		t.Error("negative sigma accepted")
	}
	// NaN fails every comparison: a sigma < 0 check let it through as a
	// sample size of math.MinInt64.
	if m, err := RequiredSampleSize(math.NaN(), 0.1, 0.95); err == nil {
		t.Errorf("NaN sigma accepted as sample size %d", m)
	}
	if m, err := RequiredSampleSize(20, math.NaN(), 0.95); err == nil {
		t.Errorf("NaN precision accepted as sample size %d", m)
	}
	if _, err := RequiredSampleSize(20, 0, 0.95); err == nil {
		t.Error("zero precision accepted")
	}
	if _, err := RequiredSampleSize(20, 0.1, 1.5); err == nil {
		t.Error("bad confidence accepted")
	}
	if _, err := RequiredSampleSize(1e150, 1e-150, 0.95); err == nil {
		t.Error("overflowing sample size accepted")
	}
}

func TestRequiredSampleSizeAtLeastOne(t *testing.T) {
	m, err := RequiredSampleSize(0, 10, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if m < 1 {
		t.Fatalf("m = %d, want >= 1", m)
	}
}

func TestMeanCI(t *testing.T) {
	ci, err := MeanCI(100, 20, 400, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := ZValue(0.95)
	want := u * 20 / 20 // sigma/sqrt(400) = 1
	if math.Abs(ci.HalfWidth-want) > 1e-12 {
		t.Errorf("half width = %v, want %v", ci.HalfWidth, want)
	}
	if !ci.Contains(100) || !ci.Contains(ci.Lo()) || !ci.Contains(ci.Hi()) {
		t.Error("interval endpoints not contained")
	}
	if ci.Contains(ci.Hi() + 0.001) {
		t.Error("interval contains point beyond Hi")
	}
	if _, err := MeanCI(0, 1, 0, 0.95); err == nil {
		t.Error("zero sample size accepted")
	}
}

func TestCICoverageEmpirical(t *testing.T) {
	// Empirically verify ~95% coverage of the CI from Definition 1.
	r := NewRNG(31)
	dist := Normal{Mu: 100, Sigma: 20}
	const trials, m = 2000, 256
	hit := 0
	for i := 0; i < trials; i++ {
		var acc Moments
		for j := 0; j < m; j++ {
			acc.Add(dist.Sample(r))
		}
		ci, err := MeanCI(acc.Mean(), dist.Sigma, m, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if ci.Contains(100) {
			hit++
		}
	}
	cov := float64(hit) / trials
	if cov < 0.93 || cov > 0.97 {
		t.Fatalf("empirical coverage %.3f outside [0.93, 0.97]", cov)
	}
}
