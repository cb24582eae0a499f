package stats

import "math"

// Moments accumulates streaming count, mean and variance using Welford's
// numerically stable recurrence. The zero value is ready to use. Moments
// values can be merged, which is how per-block pilot statistics are combined
// in the Pre-estimation module.
type Moments struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// RebuildMoments reconstructs an accumulator from its serialized components
// (count, mean, M2 = Σ(x−mean)², min, max) — the wire format distributed
// workers ship back to a coordinator.
func RebuildMoments(n int64, mean, m2, min, max float64) Moments {
	if n <= 0 {
		return Moments{}
	}
	return Moments{n: n, mean: mean, m2: m2, min: min, max: max}
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	if m.n == 0 {
		m.min, m.max = x, x
	} else {
		if x < m.min {
			m.min = x
		}
		if x > m.max {
			m.max = x
		}
	}
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// AddSlice folds every element of xs into the accumulator — the chunk form
// of Add used by the batched sampling path. The accumulator state is kept in
// locals for the whole slice so the loop compiles without per-element field
// loads; the arithmetic and its order are exactly Add's, so the result is
// bit-identical to calling Add once per element.
func (m *Moments) AddSlice(xs []float64) {
	if len(xs) == 0 {
		return
	}
	n, mean, m2, mn, mx := m.n, m.mean, m.m2, m.min, m.max
	for _, x := range xs {
		if n == 0 {
			mn, mx = x, x
		} else {
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		n++
		d := x - mean
		mean += d / float64(n)
		m2 += d * (x - mean)
	}
	m.n, m.mean, m.m2, m.min, m.max = n, mean, m2, mn, mx
}

// Merge folds another accumulator into the receiver (Chan et al. parallel
// variance combination).
func (m *Moments) Merge(o Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	n := m.n + o.n
	d := o.mean - m.mean
	m.m2 += o.m2 + d*d*float64(m.n)*float64(o.n)/float64(n)
	m.mean += d * float64(o.n) / float64(n)
	if o.min < m.min {
		m.min = o.min
	}
	if o.max > m.max {
		m.max = o.max
	}
	m.n = n
}

// Count returns the number of observations seen.
func (m *Moments) Count() int64 { return m.n }

// Mean returns the running mean (0 when empty).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the population variance (0 with fewer than 2 points).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// SampleVariance returns the Bessel-corrected variance.
func (m *Moments) SampleVariance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the population standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// SampleStdDev returns the Bessel-corrected standard deviation.
func (m *Moments) SampleStdDev() float64 { return math.Sqrt(m.SampleVariance()) }

// M2 returns the raw Welford sum of squared deviations Σ(x−mean)² — the
// exact serialized form RebuildMoments consumes, so moments survive a wire
// round-trip bit for bit (Variance()·Count() loses the n<2 state and a ulp).
func (m *Moments) M2() float64 { return m.m2 }

// Min returns the smallest observation (0 when empty).
func (m *Moments) Min() float64 { return m.min }

// Max returns the largest observation (0 when empty).
func (m *Moments) Max() float64 { return m.max }

// PowerSums accumulates count, Σx, Σx² and Σx³ — exactly the per-region
// state ISLA's sampling phase maintains (paper Algorithm 1). The zero value
// is ready to use.
type PowerSums struct {
	Count int64
	Sum   float64
	Sum2  float64
	Sum3  float64
}

// Add folds one observation into the sums.
func (p *PowerSums) Add(x float64) {
	p.Count++
	p.Sum += x
	x2 := x * x
	p.Sum2 += x2
	p.Sum3 += x2 * x
}

// AddSlice folds every element of xs into the sums — the chunk form of Add.
// Sums accumulate in locals across the slice; operations and their order
// match Add exactly, so results are bit-identical to a scalar loop.
func (p *PowerSums) AddSlice(xs []float64) {
	count, sum, sum2, sum3 := p.Count, p.Sum, p.Sum2, p.Sum3
	for _, x := range xs {
		count++
		sum += x
		x2 := x * x
		sum2 += x2
		sum3 += x2 * x
	}
	p.Count, p.Sum, p.Sum2, p.Sum3 = count, sum, sum2, sum3
}

// Merge folds another accumulator into the receiver. This is what makes the
// online-aggregation extension (paper §VII-A) a one-liner: new rounds of
// samples merge into the stored sums.
func (p *PowerSums) Merge(o PowerSums) {
	p.Count += o.Count
	p.Sum += o.Sum
	p.Sum2 += o.Sum2
	p.Sum3 += o.Sum3
}

// Mean returns Sum/Count (0 when empty).
func (p *PowerSums) Mean() float64 {
	if p.Count == 0 {
		return 0
	}
	return p.Sum / float64(p.Count)
}
