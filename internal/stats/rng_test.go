package stats

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestRNGZeroSeedNotDegenerate(t *testing.T) {
	r := NewRNG(0)
	var zero int
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zero++
		}
	}
	if zero > 1 {
		t.Fatalf("seed 0 produced %d zeros out of 100", zero)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64MeanVariance(t *testing.T) {
	r := NewRNG(11)
	var m Moments
	for i := 0; i < 200000; i++ {
		m.Add(r.Float64())
	}
	if math.Abs(m.Mean()-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", m.Mean())
	}
	if math.Abs(m.Variance()-1.0/12) > 0.01 {
		t.Errorf("uniform variance = %v, want ~1/12", m.Variance())
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(5)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := trials / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Errorf("bucket %d: count %d deviates >5%% from %d", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestUint64nLemireUnbiased(t *testing.T) {
	// Property: result always < n.
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		r := NewRNG(seed)
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		x, y, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.x, c.y)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.x, c.y, hi, lo, c.hi, c.lo)
		}
		if bhi, blo := bits.Mul64(c.x, c.y); bhi != c.hi || blo != c.lo {
			t.Errorf("bits.Mul64(%d,%d) = (%d,%d), want (%d,%d)", c.x, c.y, bhi, blo, c.hi, c.lo)
		}
	}
	// The generator's index draws went from mul64 to bits.Mul64; the two
	// must agree on every operand pair, carries across the 32-bit halves
	// included.
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<62 + 1, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	check := func(x, y uint64) {
		hi, lo := mul64(x, y)
		if bhi, blo := bits.Mul64(x, y); bhi != hi || blo != lo {
			t.Fatalf("bits.Mul64(%d,%d) = (%d,%d), schoolbook (%d,%d)", x, y, bhi, blo, hi, lo)
		}
	}
	for _, x := range edges {
		for _, y := range edges {
			check(x, y)
		}
	}
	r := NewRNG(64)
	for i := 0; i < 100000; i++ {
		check(r.Uint64(), r.Uint64())
	}
}

// mul64 is the schoolbook 128-bit product the generator used before
// math/bits.Mul64 — kept as the oracle the intrinsic is checked against.
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	var m Moments
	for i := 0; i < 300000; i++ {
		m.Add(r.NormFloat64())
	}
	if math.Abs(m.Mean()) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", m.Mean())
	}
	if math.Abs(m.StdDev()-1) > 0.01 {
		t.Errorf("normal stddev = %v, want ~1", m.StdDev())
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	var m Moments
	for i := 0; i < 300000; i++ {
		m.Add(r.ExpFloat64())
	}
	if math.Abs(m.Mean()-1) > 0.02 {
		t.Errorf("exp mean = %v, want ~1", m.Mean())
	}
	if math.Abs(m.StdDev()-1) > 0.02 {
		t.Errorf("exp stddev = %v, want ~1", m.StdDev())
	}
}
