package stats

import (
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"
	"testing/quick"
)

func TestMomentsBasic(t *testing.T) {
	var m Moments
	m.AddSlice([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m.Count() != 8 {
		t.Fatalf("count = %d, want 8", m.Count())
	}
	if m.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", m.Mean())
	}
	if m.Variance() != 4 {
		t.Fatalf("variance = %v, want 4", m.Variance())
	}
	if m.StdDev() != 2 {
		t.Fatalf("stddev = %v, want 2", m.StdDev())
	}
	if m.Min() != 2 || m.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", m.Min(), m.Max())
	}
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.Variance() != 0 || m.Count() != 0 {
		t.Fatal("zero value not neutral")
	}
}

func TestMomentsSampleVariance(t *testing.T) {
	var m Moments
	m.AddSlice([]float64{1, 2, 3})
	if m.SampleVariance() != 1 {
		t.Fatalf("sample variance = %v, want 1", m.SampleVariance())
	}
	if m.SampleStdDev() != 1 {
		t.Fatalf("sample stddev = %v, want 1", m.SampleStdDev())
	}
	var single Moments
	single.Add(5)
	if single.SampleVariance() != 0 {
		t.Fatal("single-point sample variance should be 0")
	}
}

func TestMomentsMergeEqualsSequential(t *testing.T) {
	f := func(seed uint64, split uint8) bool {
		r := NewRNG(seed)
		n := 50 + int(split)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		cut := int(split) % n
		var whole, left, right Moments
		whole.AddSlice(xs)
		left.AddSlice(xs[:cut])
		right.AddSlice(xs[cut:])
		left.Merge(right)
		return left.Count() == whole.Count() &&
			math.Abs(left.Mean()-whole.Mean()) < 1e-9 &&
			math.Abs(left.Variance()-whole.Variance()) < 1e-6 &&
			left.Min() == whole.Min() && left.Max() == whole.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMomentsMergeEmpty(t *testing.T) {
	var a, b Moments
	a.AddSlice([]float64{1, 2, 3})
	want := a
	a.Merge(b) // merging empty is a no-op
	if a != want {
		t.Fatal("merging empty changed accumulator")
	}
	b.Merge(a) // merging into empty copies
	if b != want {
		t.Fatal("merging into empty did not copy")
	}
}

func TestMomentsNumericalStability(t *testing.T) {
	// Large offset: naive sum-of-squares would lose all precision.
	var m Moments
	const offset = 1e9
	for _, x := range []float64{offset + 4, offset + 7, offset + 13, offset + 16} {
		m.Add(x)
	}
	if math.Abs(m.Mean()-(offset+10)) > 1e-6 {
		t.Fatalf("mean = %v, want %v", m.Mean(), offset+10)
	}
	if math.Abs(m.Variance()-22.5) > 1e-6 {
		t.Fatalf("variance = %v, want 22.5", m.Variance())
	}
}

func TestPowerSumsBasic(t *testing.T) {
	var p PowerSums
	for _, x := range []float64{1, 2, 3} {
		p.Add(x)
	}
	if p.Count != 3 || p.Sum != 6 || p.Sum2 != 14 || p.Sum3 != 36 {
		t.Fatalf("got %+v", p)
	}
	if p.Mean() != 2 {
		t.Fatalf("mean = %v, want 2", p.Mean())
	}
}

func TestPowerSumsZero(t *testing.T) {
	var p PowerSums
	if p.Mean() != 0 {
		t.Fatal("zero value not neutral")
	}
}

func TestPowerSumsMergeEqualsSequential(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		xs := make([]float64, 64)
		for i := range xs {
			xs[i] = r.Float64() * 10
		}
		var whole, a, b PowerSums
		for _, x := range xs {
			whole.Add(x)
		}
		for _, x := range xs[:32] {
			a.Add(x)
		}
		for _, x := range xs[32:] {
			b.Add(x)
		}
		a.Merge(b)
		return a.Count == whole.Count &&
			math.Abs(a.Sum-whole.Sum) < 1e-9 &&
			math.Abs(a.Sum2-whole.Sum2) < 1e-7 &&
			math.Abs(a.Sum3-whole.Sum3) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRebuildMomentsRoundTrip(t *testing.T) {
	var m Moments
	r := NewRNG(77)
	for i := 0; i < 5000; i++ {
		m.Add(50 + 10*r.NormFloat64())
	}
	got := RebuildMoments(m.Count(), m.Mean(), m.Variance()*float64(m.Count()), m.Min(), m.Max())
	if got.Count() != m.Count() ||
		math.Abs(got.Mean()-m.Mean()) > 1e-12 ||
		math.Abs(got.Variance()-m.Variance()) > 1e-9 ||
		got.Min() != m.Min() || got.Max() != m.Max() {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
	// Rebuilt accumulators must keep merging correctly.
	var extra Moments
	extra.AddSlice([]float64{1, 2, 3})
	a := got
	a.Merge(extra)
	b := m
	b.Merge(extra)
	if math.Abs(a.Mean()-b.Mean()) > 1e-12 || math.Abs(a.Variance()-b.Variance()) > 1e-9 {
		t.Fatal("merge after rebuild diverges")
	}
}

func TestRebuildMomentsEmpty(t *testing.T) {
	got := RebuildMoments(0, 5, 5, 5, 5)
	if got.Count() != 0 || got.Mean() != 0 {
		t.Fatalf("empty rebuild = %+v", got)
	}
}

// momentBits is an accumulator's five read-outs as bits.
func momentBits(m *Moments) [5]uint64 {
	return [5]uint64{uint64(m.Count()), math.Float64bits(m.Mean()), math.Float64bits(m.M2()),
		math.Float64bits(m.Min()), math.Float64bits(m.Max())}
}

// TestMomentsSplitInvariance: a value's lane is its position in the stream,
// so however the stream is cut — value by value with Add, whole, at random
// points, in chunks of 1 to 17 values or of a sampling chunk's 16 384 — the
// accumulator holds the same state and reads out the same bits.
func TestMomentsSplitInvariance(t *testing.T) {
	const chunkSize = 16384 // block.ChunkSize
	r := NewRNG(11)
	xs := make([]float64, 3*chunkSize+13)
	for i := range xs {
		xs[i] = 1e3 + 50*r.NormFloat64()
	}
	var want Moments
	for _, x := range xs {
		want.Add(x)
	}
	check := func(what string, got Moments) {
		t.Helper()
		if got != want || momentBits(&got) != momentBits(&want) {
			t.Errorf("%s: %v, want %v (value by value)", what, momentBits(&got), momentBits(&want))
		}
	}
	chunked := func(next func() int) Moments {
		var m Moments
		for rest := xs; len(rest) > 0; {
			k := min(next(), len(rest))
			m.AddSlice(rest[:k])
			rest = rest[k:]
		}
		return m
	}
	var whole Moments
	whole.AddSlice(xs)
	check("whole slice", whole)
	for trial := range 20 {
		check(fmt.Sprintf("random cuts #%d", trial), chunked(func() int { return 1 + r.Intn(40) }))
	}
	for c := 1; c <= 17; c++ {
		check(fmt.Sprintf("chunks of %d", c), chunked(func() int { return c }))
	}
	check("chunks of ChunkSize", chunked(func() int { return chunkSize }))
}

// exactMoments is the reference for TestMomentsAccuracy: the mean and M2 of
// xs, and S = Σ(x−k)² and Σ|x−k| about k = xs[0], in 256-bit arithmetic,
// each rounded once to float64.
func exactMoments(xs []float64) (mean, m2, s, abs float64) {
	nf := func() *big.Float { return new(big.Float).SetPrec(256) }
	sum, sq, ab, x, d, k := nf(), nf(), nf(), nf(), nf(), nf()
	k.SetFloat64(xs[0])
	for _, v := range xs {
		x.SetFloat64(v)
		sum.Add(sum, x)
		d.Sub(x, k)
		ab.Add(ab, d.Abs(d))
		sq.Add(sq, d.Mul(d, d))
	}
	mu := sum.Quo(sum, nf().SetInt64(int64(len(xs))))
	dev := nf()
	for _, v := range xs {
		d.Sub(x.SetFloat64(v), mu)
		dev.Add(dev, d.Mul(d, d))
	}
	mean, _ = mu.Float64()
	m2, _ = dev.Float64()
	s, _ = sq.Float64()
	abs, _ = ab.Float64()
	return mean, m2, s, abs
}

// TestMomentsAccuracy holds the fold to the bounds on Moments' doc comment,
// against exactMoments: |M2 − exact| ≤ (n+16)·u·S and |Mean − exact| ≤
// u·|exact| + (n+16)·u·Σ|x−k|/n, u = 2⁻⁵³, k the first value. Constant data
// and ±0 read out exactly; Min and Max always do.
func TestMomentsAccuracy(t *testing.T) {
	normal := func(seed uint64, n int, mu, sigma float64) []float64 {
		r := NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = mu + sigma*r.NormFloat64()
		}
		return xs
	}
	outlier := normal(3, 5000, 0, 1)
	outlier[0] = 1e6 // the shift, a million deviations out
	twoPoint := make([]float64, 1001)
	for i := range twoPoint {
		twoPoint[i] = 0.1 + 0.2*float64(i%2)
	}
	constant := make([]float64, 1000)
	for i := range constant {
		constant[i] = 3.7
	}
	for _, tc := range []struct {
		name  string
		xs    []float64
		exact bool // Mean and M2 must equal the reference
	}{
		{"offset 1e9, σ 1", normal(1, 10_000, 1e9, 1), false},
		{"offset 1e15, σ 1", normal(2, 10_000, 1e15, 1), false},
		{"first value 1e6 σ out", outlier, false},
		{"constant", constant, true},
		{"two-point", twoPoint, false},
		{"±0", []float64{0, math.Copysign(0, -1), 0, math.Copysign(0, -1), math.Copysign(0, -1)}, true},
		{"10⁶ values", normal(4, 1_000_000, 100, 20), false},
	} {
		var m Moments
		m.AddSlice(tc.xs)
		mean, m2, s, abs := exactMoments(tc.xs)
		n := float64(len(tc.xs))
		const u = 0x1p-53
		meanTol := u*math.Abs(mean) + (n+16)*u*abs/n
		m2Tol := (n + 16) * u * s
		if tc.exact {
			meanTol, m2Tol = 0, 0
		}
		if d := math.Abs(m.Mean() - mean); !(d <= meanTol) {
			t.Errorf("%s: mean %v, exact %v: off by %v, bound %v", tc.name, m.Mean(), mean, d, meanTol)
		}
		if d := math.Abs(m.M2() - m2); !(d <= m2Tol) {
			t.Errorf("%s: M2 %v, exact %v: off by %v, bound %v", tc.name, m.M2(), m2, d, m2Tol)
		}
		if m.Min() != slices.Min(tc.xs) || m.Max() != slices.Max(tc.xs) {
			t.Errorf("%s: min/max %v/%v, want %v/%v", tc.name, m.Min(), m.Max(), slices.Min(tc.xs), slices.Max(tc.xs))
		}
	}
}

// TestMomentsNonFinite: a NaN or infinite value anywhere in the stream —
// the shift included — leaves a mean or a deviation that is not finite,
// which RequiredSampleSize refuses, so a pilot that drew such a row cannot
// size a query (engine.TestNonFiniteRowsRefused checks the statements).
func TestMomentsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, 1, 37, 99} {
			xs := make([]float64, 100)
			for i := range xs {
				xs[i] = 10 + float64(i%7)
			}
			xs[at] = bad
			var m Moments
			m.AddSlice(xs)
			if finite := !math.IsNaN(m.Mean()) && !math.IsInf(m.Mean(), 0); finite {
				t.Errorf("%v at %d: mean %v is finite", bad, at, m.Mean())
			}
			if _, err := RequiredSampleSize(m.SampleStdDev(), 0.1, 0.95); err == nil {
				t.Errorf("%v at %d: σ %v sizes a query", bad, at, m.SampleStdDev())
			}
		}
	}
}
