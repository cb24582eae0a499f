package leverage

import (
	"math"
	"testing"

	"isla/internal/stats"
)

// AddShifted must produce bit-identical power sums to a scalar loop of
// Add(v+shift), across every region and for non-finite values.
func TestAccumAddShiftedBitIdentical(t *testing.T) {
	bounds, err := NewBoundaries(100, 20, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(3)
	vs := make([]float64, 6000)
	for i := range vs {
		vs[i] = stats.Normal{Mu: 95, Sigma: 35}.Sample(r)
	}
	// Pepper in boundary-exact and pathological values: the batched ladder
	// must classify them exactly like Boundaries.Classify.
	edge := []float64{
		bounds.sLo(), bounds.sHi(), bounds.lLo(), bounds.lHi(),
		math.Inf(1), math.Inf(-1), math.NaN(), 0,
	}
	vs = append(vs, edge...)

	for _, shift := range []float64{0, 17.25} {
		scalar := NewAccum(bounds)
		for _, v := range vs {
			scalar.Add(v + shift)
		}
		batch := NewAccum(bounds)
		batch.AddShifted(vs[:1], shift)
		batch.AddShifted(vs[1:4000], shift)
		batch.AddShifted(nil, shift)
		batch.AddShifted(vs[4000:], shift)
		if scalar.Seen != batch.Seen {
			t.Fatalf("shift=%v: seen %d vs %d", shift, scalar.Seen, batch.Seen)
		}
		if scalar.S != batch.S || scalar.L != batch.L {
			t.Fatalf("shift=%v: sums diverged\nscalar S=%+v L=%+v\nbatch  S=%+v L=%+v",
				shift, scalar.S, scalar.L, batch.S, batch.L)
		}
	}
}

// sameSums demands bit-identical accumulators — NaN sums included, which ==
// would call different from themselves.
func sameSums(t *testing.T, what string, got, want *Accum) {
	t.Helper()
	same := func(a, b stats.PowerSums) bool {
		return a.Count == b.Count &&
			math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
			math.Float64bits(a.Sum2) == math.Float64bits(b.Sum2) &&
			math.Float64bits(a.Sum3) == math.Float64bits(b.Sum3)
	}
	if got.Seen != want.Seen || !same(got.S, want.S) || !same(got.L, want.L) {
		t.Fatalf("%s: AddShifted diverged from Add\nAdd        Seen=%d S=%+v L=%+v\nAddShifted Seen=%d S=%+v L=%+v",
			what, want.Seen, want.S, want.L, got.Seen, got.S, got.L)
	}
}

// The compacting kernel against the scalar ladder it replaced as the chunk
// path, Add(v+shift) as the oracle: bounds as NewBoundaries builds them and
// as a struct literal can spell them, values on and one ulp around every
// boundary, runs that fill one scratch buffer, the other, or neither, and
// slice lengths around the scratch size and up to a sampling chunk.
func TestAddShiftedKernelBattery(t *testing.T) {
	const chunk = 16384 // block.ChunkSize
	nan, inf := math.NaN(), math.Inf(1)
	bounds := map[string]Boundaries{
		"default":        {Center: 100, Sigma: 20, P1: 0.5, P2: 2},
		"sigma-zero":     {Center: 100, Sigma: 0, P1: 0.5, P2: 2},
		"sigma-huge":     {Center: 100, Sigma: 1e300, P1: 0.5, P2: 2},
		"sigma-overflow": {Center: 100, Sigma: math.MaxFloat64, P1: 0.5, P2: 2}, // lo2 = -Inf, hi2 = +Inf
		// What NewBoundaries refuses but a literal can hold: the kernel must
		// still classify as Classify does, first matching case wins.
		"p1-above-p2":    {Center: 100, Sigma: 20, P1: 2, P2: 0.5},
		"p1-equals-p2":   {Center: 100, Sigma: 20, P1: 1, P2: 1},
		"p1-negative":    {Center: 100, Sigma: 20, P1: -0.5, P2: 2}, // S swallows what would pass L's tests
		"sigma-negative": {Center: 100, Sigma: -20, P1: 0.5, P2: 2},
		"sigma-nan":      {Center: 100, Sigma: nan, P1: 0.5, P2: 2},
		"center-nan":     {Center: nan, Sigma: 20, P1: 0.5, P2: 2},
		"center-inf":     {Center: inf, Sigma: 20, P1: 0.5, P2: 2},
		"center-neg-inf": {Center: -inf, Sigma: 20, P1: 0.5, P2: 2},
		"p1-nan":         {Center: 100, Sigma: 20, P1: nan, P2: 2}, // only the outer tests can match
		"p2-nan":         {Center: 100, Sigma: 20, P1: 0.5, P2: nan},
		"p2-inf":         {Center: 100, Sigma: 20, P1: 0.5, P2: inf},
	}
	for _, name := range []string{"default", "sigma-zero", "sigma-huge"} {
		b := bounds[name]
		if _, err := NewBoundaries(b.Center, b.Sigma, b.P1, b.P2); err != nil {
			t.Fatalf("%s should be a validated case: %v", name, err)
		}
	}
	lens := []int{0, 1, 2, scratchLen - 1, scratchLen, scratchLen + 1, 2*scratchLen + 3, chunk}
	r := stats.NewRNG(14)
	for name, b := range bounds {
		// One pool per bounds: the edge values, then homogeneous runs longer
		// than a scratch buffer, then bell-shaped and skewed data around
		// the regions.
		pool := []float64{0, math.Copysign(0, -1), inf, -inf, nan, math.MaxFloat64, -math.MaxFloat64}
		for _, e := range []float64{b.sLo(), b.sHi(), b.lLo(), b.lHi()} {
			pool = append(pool, e, math.Nextafter(e, inf), math.Nextafter(e, -inf))
		}
		run := func(v float64) {
			for i := 0; i < scratchLen+5; i++ {
				pool = append(pool, v)
			}
		}
		run((b.sLo() + b.sHi()) / 2) // all S
		run((b.lLo() + b.lHi()) / 2) // all L
		run(b.Center)                // none in a region
		for i := 0; i < 3*scratchLen; i++ {
			pool = append(pool, stats.Normal{Mu: 100, Sigma: 20}.Sample(r))
		}
		for i := 0; i < 3*scratchLen; i++ {
			pool = append(pool, 60+stats.Exponential{Gamma: 0.05}.Sample(r))
		}
		for _, shift := range []float64{0, 17.25, -3} {
			for _, n := range lens {
				// Slide the window so every length meets every part of the
				// pool at every scratch-buffer phase.
				for off := 0; off < len(pool); off += 61 {
					vs := make([]float64, n)
					for i := range vs {
						vs[i] = pool[(off+i)%len(pool)]
					}
					want, got := NewAccum(b), NewAccum(b)
					for _, v := range vs {
						want.Add(v + shift)
					}
					got.AddShifted(vs, shift)
					sameSums(t, name, got, want)
					if n == chunk {
						break // one full chunk per bounds and shift is enough
					}
				}
			}
		}
	}

	// The distributions the benchmark feeds it, a whole chunk at a time,
	// accumulating across calls.
	for name, d := range map[string]stats.Dist{
		"normal":      stats.Normal{Mu: 100, Sigma: 20},
		"exponential": stats.Exponential{Gamma: 0.1},
	} {
		b := Boundaries{Center: d.Mean(), Sigma: d.StdDev(), P1: 0.5, P2: 2}
		want, got := NewAccum(b), NewAccum(b)
		vs := make([]float64, chunk)
		for round := 0; round < 4; round++ {
			for i := range vs {
				vs[i] = d.Sample(r)
			}
			for _, v := range vs {
				want.Add(v + 0.5)
			}
			got.AddShifted(vs, 0.5)
			sameSums(t, name, got, want)
		}
		if got.S.Count == 0 || got.L.Count == 0 {
			t.Fatalf("%s: a region stayed empty (S=%d L=%d); the battery is not exercising it", name, got.S.Count, got.L.Count)
		}
	}
}
