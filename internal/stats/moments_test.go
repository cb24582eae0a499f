package stats

import (
	"math"
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
