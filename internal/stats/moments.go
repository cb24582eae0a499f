package stats

import "math"

// Moments accumulates streaming count, mean and variance by shifted power
// sums (Chan, Golub and LeVeque 1983): the first value is the shift k, and
// four lanes, chosen by stream position mod 4, sum x−k and (x−k)². Nothing
// divides per value; Mean and M2 are computed on read. Because a value's
// lane is its position in the stream, Add and AddSlice give the same bits
// however the stream is split. The zero value is ready to use. Moments
// values can be merged, which is how per-block pilot statistics are combined
// in the Pre-estimation module.
//
// Accuracy: with S = Σ(x−k)² over the n values, |M2 − exact| ≤ (n+16)·u·S
// and |Mean − exact| ≤ u·|Mean| + (n+16)·u·Σ|x−k|/n, u = 2⁻⁵³. S is the
// exact M2 plus n·(Mean−k)², so a first value many deviations from the mean
// costs relative accuracy in M2 (TestMomentsAccuracy).
type Moments struct {
	n    int64
	k    float64
	s, q [4]float64
	min  float64
	max  float64
}

// RebuildMoments reconstructs an accumulator from its serialized components
// (count, mean, M2 = Σ(x−mean)², min, max) — the wire format distributed
// workers ship back to a coordinator. The result is settled: its shift is
// the mean and its lanes hold only M2, so it reads back exactly the mean and
// M2 it was given.
func RebuildMoments(n int64, mean, m2, min, max float64) Moments {
	if n <= 0 {
		return Moments{}
	}
	return Moments{n: n, k: mean, q: [4]float64{m2}, min: min, max: max}
}

// Add folds one observation into the accumulator.
func (m *Moments) Add(x float64) {
	if m.n == 0 {
		m.k, m.min, m.max = x, x, x
	}
	i := m.n & 3
	m.min, m.max, m.s[i], m.q[i] = step(x, m.k, m.min, m.max, m.s[i], m.q[i])
	m.n++
}

// step folds x, shifted by k, into one lane's sums s and q, and into the
// running min and max. Add and fold both go through it, so a value meets
// the same arithmetic whichever path folds it.
func step(x, k, mn, mx, s, q float64) (float64, float64, float64, float64) {
	if x < mn {
		mn = x
	}
	if x > mx {
		mx = x
	}
	d := x - k
	return mn, mx, s + d, q + float64(d*d)
}

// AddSlice folds every element of xs into the accumulator — the chunk form
// of Add used by the batched sampling path. Values up to the next lane-0
// position and after the last whole group of four go through Add; the rest
// through fold. Each lane sees the same values in the same order either
// way, so the result is bit-identical to calling Add once per element.
func (m *Moments) AddSlice(xs []float64) {
	if len(xs) == 0 {
		return
	}
	if m.n == 0 {
		m.k, m.min, m.max = xs[0], xs[0], xs[0]
	}
	for len(xs) > 0 && m.n&3 != 0 {
		m.Add(xs[0])
		xs = xs[1:]
	}
	body := len(xs) &^ 3
	m.fold(xs[:body])
	for _, x := range xs[body:] {
		m.Add(x)
	}
}

// fold is AddSlice's loop over whole groups of four values starting at
// lane 0 (m.n is a multiple of 4, len(xs) too). It is a function of its own
// so that the shift, the eight lane sums and min/max stay in registers.
func (m *Moments) fold(xs []float64) {
	k, mn, mx := m.k, m.min, m.max
	s0, s1, s2, s3 := m.s[0], m.s[1], m.s[2], m.s[3]
	q0, q1, q2, q3 := m.q[0], m.q[1], m.q[2], m.q[3]
	m.n += int64(len(xs))
	for len(xs) >= 4 {
		mn, mx, s0, q0 = step(xs[0], k, mn, mx, s0, q0)
		mn, mx, s1, q1 = step(xs[1], k, mn, mx, s1, q1)
		mn, mx, s2, q2 = step(xs[2], k, mn, mx, s2, q2)
		mn, mx, s3, q3 = step(xs[3], k, mn, mx, s3, q3)
		xs = xs[4:]
	}
	m.min, m.max = mn, mx
	m.s = [4]float64{s0, s1, s2, s3}
	m.q = [4]float64{q0, q1, q2, q3}
}

// Merge folds another accumulator into the receiver (Chan et al. parallel
// variance combination), reading both through Mean and M2; the receiver is
// left settled, as RebuildMoments builds it.
func (m *Moments) Merge(o Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = o
		return
	}
	n := m.n + o.n
	ma := m.Mean()
	d := o.Mean() - ma
	m2 := m.M2() + (o.M2() + d*d*float64(m.n)*float64(o.n)/float64(n))
	mean := ma + d*float64(o.n)/float64(n)
	mn, mx := m.min, m.max
	if o.min < mn {
		mn = o.min
	}
	if o.max > mx {
		mx = o.max
	}
	*m = RebuildMoments(n, mean, m2, mn, mx)
}

// Count returns the number of observations seen.
func (m *Moments) Count() int64 { return m.n }

// Mean returns k + Σ(x−k)/n (0 when empty).
func (m *Moments) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.k + ((m.s[0]+m.s[1])+(m.s[2]+m.s[3]))/float64(m.n)
}

// Variance returns the population variance (0 with fewer than 2 points).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.M2() / float64(m.n)
}

// SampleVariance returns the Bessel-corrected variance.
func (m *Moments) SampleVariance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.M2() / float64(m.n-1)
}

// StdDev returns the population standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// SampleStdDev returns the Bessel-corrected standard deviation.
func (m *Moments) SampleStdDev() float64 { return math.Sqrt(m.SampleVariance()) }

// M2 returns the sum of squared deviations Σ(x−mean)², as Σ(x−k)² −
// (Σ(x−k))²/n; rounding cannot make it negative. It is the serialized form
// RebuildMoments consumes, so moments survive a wire round-trip bit for bit
// (Variance()·Count() loses the n<2 state and a ulp).
func (m *Moments) M2() float64 {
	if m.n == 0 {
		return 0
	}
	s := (m.s[0] + m.s[1]) + (m.s[2] + m.s[3])
	m2 := (m.q[0] + m.q[1]) + (m.q[2] + m.q[3]) - float64(s*s)/float64(m.n)
	if m2 < 0 {
		return 0
	}
	return m2
}

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
