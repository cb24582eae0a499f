package modulate

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"isla/internal/leverage"
	"isla/internal/stats"
)

// The reference: the two inversions as plain eighty-step bisections of
// [−4, 4], no table and no shortcut, and the two functions built on them
// with only the inversion swapped. The package's bracketed search finds
// the same roots in a tenth of the evaluations; the contract below says how
// close "the same" is.

func oracleShapeDelta(dev, p1, p2 float64) float64 {
	if math.IsNaN(dev) || dev <= 0 {
		return -shapeDeltaMax
	}
	if math.IsInf(dev, 1) {
		return shapeDeltaMax
	}
	lo, hi := -shapeDeltaMax, shapeDeltaMax
	if ExpectedDevRatio(lo, p1, p2) >= dev {
		return lo
	}
	if ExpectedDevRatio(hi, p1, p2) <= dev {
		return hi
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if ExpectedDevRatio(mid, p1, p2) < dev {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func oracleD0Delta(d0Std, p1, p2 float64) float64 {
	if math.IsNaN(d0Std) {
		return 0
	}
	lo, hi := -shapeDeltaMax, shapeDeltaMax
	if expectedD0Std(lo, p1, p2) <= d0Std {
		return lo
	}
	if expectedD0Std(hi, p1, p2) >= d0Std {
		return hi
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if expectedD0Std(mid, p1, p2) > d0Std {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// inversion is ShapeDelta's and D0Delta's signature.
type inversion func(x, p1, p2 float64) float64

func oracleEvaluateDeviation(s, l stats.PowerSums, sketch0, sigma, p1, p2 float64) float64 {
	return fuseDeviation(oracleShapeDelta, oracleD0Delta, s, l, sketch0, sigma, p1, p2)
}

// fuseDeviation is EvaluateDeviation with its two inversions passed in.
func fuseDeviation(shape, d0 inversion, s, l stats.PowerSums, sketch0, sigma, p1, p2 float64) float64 {
	u := float64(s.Count)
	v := float64(l.Count)
	if s.Count == 0 || l.Count == 0 || sigma <= 0 {
		dev := math.Inf(1)
		if l.Count > 0 {
			dev = u / v
		} else if s.Count == 0 {
			dev = 1
		}
		return shape(dev, p1, p2)
	}
	dev := u / v
	dCounts := shape(dev, p1, p2)
	c := (s.Sum + l.Sum) / (u + v)
	dD0 := d0((c-sketch0)/sigma, p1, p2)

	slopeR, slopeG := slopes(dCounts, p1, p2)
	varCounts := math.Inf(1)
	if slopeR != 0 {
		varCounts = (1/u + 1/v) / (slopeR * slopeR)
	}
	mean2 := (s.Sum2 + l.Sum2) / (u + v)
	sampleVar := mean2 - c*c
	if sampleVar < 0 {
		sampleVar = 0
	}
	varD0 := math.Inf(1)
	if slopeG != 0 {
		varD0 = sampleVar / (u + v) / (sigma * sigma) / (slopeG * slopeG)
	}
	switch {
	case math.IsInf(varCounts, 1) && math.IsInf(varD0, 1):
		return dCounts
	case math.IsInf(varCounts, 1):
		return dD0
	case math.IsInf(varD0, 1):
		return dCounts
	case varCounts == 0 && varD0 == 0:
		return (dCounts + dD0) / 2
	}
	wc := 1 / (varCounts + 1e-18)
	wd := 1 / (varD0 + 1e-18)
	fused := (wc*dCounts + wd*dD0) / (wc + wd)
	diff := dCounts - dD0
	z2 := diff * diff / (varCounts + varD0 + 1e-18)
	const gate = 4.0
	if z2 > gate {
		fused *= gate / z2
	}
	return fused
}

func oracleRun(s, l stats.PowerSums, b leverage.Boundaries, qpol leverage.QPolicy, opts Options) Result {
	return runWith(oracleEvaluateDeviation, s, l, b, qpol, opts)
}

// runWith is Run with its deviation evaluation passed in.
func runWith(evaluate func(s, l stats.PowerSums, sketch0, sigma, p1, p2 float64) float64,
	s, l stats.PowerSums, b leverage.Boundaries, qpol leverage.QPolicy, opts Options) Result {
	sketch0 := b.Center
	res := Result{Sketch: sketch0, Q: 1, Target: sketch0}
	u, v := s.Count, l.Count
	if u == 0 && v == 0 {
		res.Case = Case5
		res.Answer = sketch0
		return res
	}
	dev := math.Inf(1)
	if v > 0 {
		dev = float64(u) / float64(v)
	}
	res.Q = qpol.Q(dev)
	k, c := leverage.KC(s, l, res.Q)
	res.K, res.C = k, c
	d0 := c - sketch0
	res.D0 = d0
	res.Case = Classify(d0, u, v)
	if res.Case == Case5 {
		res.Answer = sketch0
		return res
	}
	target := sketch0 - evaluate(s, l, sketch0, b.Sigma, b.P1, b.P2)*b.Sigma
	if opts.SketchBound > 0 {
		target = math.Max(math.Min(target, sketch0+opts.SketchBound), sketch0-opts.SketchBound)
	}
	res.Target = target
	if opts.Mode == LambdaFixed {
		res.Alpha, res.Sketch, res.Iterations = runFixed(res.Case, k, sketch0, d0, opts)
	} else {
		res.Alpha, res.Sketch, res.Iterations = runAuto(k, c, sketch0, target, d0, opts)
	}
	res.Answer = k*res.Alpha + c
	if k == 0 {
		res.Answer = res.Sketch
	}
	res.Lambda = realizedLambda(target, c, sketch0)
	return res
}

// sameBits is == on the bit pattern, so NaN equals NaN and −0 is not +0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameResult(a, b Result) bool {
	return sameBits(a.Answer, b.Answer) && sameBits(a.Alpha, b.Alpha) && sameBits(a.Sketch, b.Sketch) &&
		sameBits(a.K, b.K) && sameBits(a.C, b.C) && sameBits(a.D0, b.D0) && a.Case == b.Case &&
		a.Iterations == b.Iterations && sameBits(a.Q, b.Q) && sameBits(a.Target, b.Target) && sameBits(a.Lambda, b.Lambda)
}

// The inversion contract. The search and the loops find the same root of
// the same f, and f carries a relative error of a few ulps, so:
//   - on the inputs a block reports they agree within blockTol;
//   - on every other input within anyTol;
//   - a target that f returns exactly at a table node gives that node's δ.
//
// Algorithm 2 runs the same rounds on either: Run's Case and Iterations
// equal the reference's, and its Answer moves by no more than σ times what
// the deviation estimate may move (fusionTol), plus rounding.
const (
	blockTol = 1e-14
	anyTol   = 1e-11
	// maxMeanEvals bounds the mean evaluations of f per inversion, and
	// maxWorstEvals any one inversion's: the battery's largest is 15, and
	// a search that ran into invert's cap of maxEvals would fail it.
	maxMeanEvals  = 8
	maxWorstEvals = 24
	u53           = 0x1p-53 // the unit roundoff
)

// near reports whether got is the reference's want to within tol.
func near(got, want, tol float64) bool { return sameBits(got, want) || math.Abs(got-want) <= tol }

// slopeNoise bounds how far the fused estimate moves, per unit of
// |dCounts − dD0|, when the inversions move in their last bits. The slopes
// are smooth in δ, but G′ = N′/T + (N/T)² − 1 cancels to about −0.1 in the
// tails, so its rounding, a few u of terms near 1, reaches the
// inverse-variance weights as a relative error of a few 10⁻¹⁴.
// TestOneUlpInversionMovesTheFusionLittle measures the largest move at
// about 6·10⁻¹⁴, where |dCounts − dD0| is above 1, and holds it to 10⁻¹³.
const slopeNoise = 1e-13

// fusionTol is the contract's bound for EvaluateDeviation: the inversions'
// own, plus the slopes' rounding scaled by how far apart the two
// indicators are.
func fusionTol(s, l stats.PowerSums, sketch0, sigma, p1, p2 float64) float64 {
	if s.Count == 0 || l.Count == 0 || sigma <= 0 {
		return blockTol
	}
	u, v := float64(s.Count), float64(l.Count)
	dCounts := oracleShapeDelta(u/v, p1, p2)
	dD0 := oracleD0Delta(((s.Sum+l.Sum)/(u+v)-sketch0)/sigma, p1, p2)
	return blockTol + math.Abs(dCounts-dD0)*slopeNoise
}

// runMatches checks Run's result against the reference's: the same case,
// round count, sums-derived coefficients and allocation parameter, and a
// target, sketch and answer within σ·fusionTol plus a few ulps of the
// values they are made of.
func runMatches(got, want Result, s, l stats.PowerSums, b leverage.Boundaries) bool {
	if got.Case != want.Case || got.Iterations != want.Iterations || !sameBits(got.K, want.K) ||
		!sameBits(got.C, want.C) || !sameBits(got.D0, want.D0) || !sameBits(got.Q, want.Q) {
		return false
	}
	tol := 0.0
	if b.Sigma > 0 && want.Case != Case5 {
		tol = b.Sigma * fusionTol(s, l, b.Center, b.Sigma, b.P1, b.P2)
	}
	tol += 16 * u53 * (math.Abs(want.Target) + math.Abs(want.C) + math.Abs(want.Answer))
	return near(got.Target, want.Target, tol) && near(got.Sketch, want.Sketch, tol) && near(got.Answer, want.Answer, tol)
}

// evalCounter counts the evaluations of f that inversions make.
type evalCounter struct{ evals, inversions, worst atomic.Int64 }

// invert runs t's search for target through a counting f and returns its
// answer.
func (c *evalCounter) invert(t *inversionTable, f func(delta, p1, p2 float64) float64, p1, p2, target float64, decreasing bool) float64 {
	var n int64
	counting := func(delta, p1, p2 float64) float64 { n++; return f(delta, p1, p2) }
	got := t.invert(counting, p1, p2, target, decreasing)
	c.evals.Add(n)
	c.inversions.Add(1)
	for w := c.worst.Load(); n > w && !c.worst.CompareAndSwap(w, n); w = c.worst.Load() {
	}
	return got
}

// check fails t when the mean is above maxMeanEvals or one inversion took
// more than maxWorstEvals.
func (c *evalCounter) check(t *testing.T, name string) {
	t.Helper()
	n, evals := c.inversions.Load(), c.evals.Load()
	mean := float64(evals) / float64(n)
	t.Logf("%s: %d inversions, %.2f evaluations of f each on average, at most %d", name, n, mean, c.worst.Load())
	if mean > maxMeanEvals || c.worst.Load() > maxWorstEvals {
		t.Errorf("%s: %.2f evaluations per inversion on average (want ≤ %d), at most %d (want ≤ %d)",
			name, mean, maxMeanEvals, c.worst.Load(), maxWorstEvals)
	}
}

// oracleGeometries: the default boundary factors and three others, one of
// them sharing the default p1. The
// batteries alternate between them call by call, so a switch of geometry
// that served the previous one's table would show at once.
var oracleGeometries = [][2]float64{{0.5, 2}, {0.25, 1.5}, {0.8, 2.5}, {0.5, 3}}

// battery runs check(r, i) for i in [0, n) on every CPU. The inputs depend
// only on the seed and on i's chunk, never on the CPU count.
func battery(t *testing.T, seed uint64, n int, check func(r *stats.RNG, i int)) {
	t.Helper()
	if testing.Short() {
		n /= 20
	}
	const chunks = 64
	next := make(chan int, chunks)
	for c := 0; c < chunks; c++ {
		next <- c
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				r := stats.NewRNG(seed + uint64(c))
				for i := c * n / chunks; i < (c+1)*n/chunks; i++ {
					check(r, i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestInversionsMatchOracleOnSeededInputs is the bulk of the battery: with
// TestEvaluateAndRunMatchOracle a million inputs, each held to the
// inversion contract against the eighty-step loops, and every search's
// evaluations of f counted.
func TestInversionsMatchOracleOnSeededInputs(t *testing.T) {
	var ratio, d0 evalCounter
	battery(t, 1, 450_000, func(r *stats.RNG, i int) {
		g := oracleGeometries[i%len(oracleGeometries)]
		var dev float64
		tol := anyTol
		switch i / len(oracleGeometries) % 4 {
		case 0: // what a block reports: a little off balance
			dev, tol = math.Exp(0.5*r.NormFloat64()), blockTol
		case 1: // anything, clamped ends included
			dev = math.Exp(28*r.Float64() - 14)
		case 2: // a ratio of small counts
			dev = float64(1+r.Intn(400)) / float64(1+r.Intn(400))
		default: // a root within a hair of zero
			dev = 1 + 1e-3*r.NormFloat64()
		}
		got, want := ShapeDelta(dev, g[0], g[1]), oracleShapeDelta(dev, g[0], g[1])
		if !near(got, want, tol) {
			t.Errorf("ShapeDelta(%v, %v, %v) = %v, loop %v", dev, g[0], g[1], got, want)
		}
		if tab := &geometryFor(g[0], g[1]).ratio; tab.lo < dev && dev < tab.hi {
			if again := ratio.invert(tab, ExpectedDevRatio, g[0], g[1], dev, false); !sameBits(again, got) {
				t.Errorf("ShapeDelta(%v, %v, %v) = %v, its search %v", dev, g[0], g[1], got, again)
			}
		}
	})
	battery(t, 1001, 450_000, func(r *stats.RNG, i int) {
		g := oracleGeometries[i%len(oracleGeometries)]
		var x float64
		tol := anyTol
		switch i / len(oracleGeometries) % 4 {
		case 0:
			x, tol = 0.05*r.NormFloat64(), blockTol
		case 1: // beyond ±4σ on both sides
			x = 12*r.Float64() - 6
		case 2:
			x = 1e-6 * r.NormFloat64()
		default: // a value G really takes
			x = expectedD0Std(8*r.Float64()-4, g[0], g[1])
		}
		got, want := D0Delta(x, g[0], g[1]), oracleD0Delta(x, g[0], g[1])
		if !near(got, want, tol) {
			t.Errorf("D0Delta(%v, %v, %v) = %v, loop %v", x, g[0], g[1], got, want)
		}
		if tab := &geometryFor(g[0], g[1]).d0; tab.lo > x && x > tab.hi {
			if again := d0.invert(tab, expectedD0Std, g[0], g[1], x, true); !sameBits(again, got) {
				t.Errorf("D0Delta(%v, %v, %v) = %v, its search %v", x, g[0], g[1], got, again)
			}
		}
	})
	ratio.check(t, "ShapeDelta")
	d0.check(t, "D0Delta")
}

// randomSums fills the S and L windows around sketch0 with u and v values,
// the whole sample shifted by up to ±0.3σ so D0 varies too.
func randomSums(r *stats.RNG, u, v int, sketch0, sigma, p1, p2 float64) (s, l stats.PowerSums) {
	shift := (0.6*r.Float64() - 0.3) * sigma
	for k := 0; k < u; k++ {
		s.Add(sketch0 - sigma*(p1+(p2-p1)*r.Float64()) + shift)
	}
	for k := 0; k < v; k++ {
		l.Add(sketch0 + sigma*(p1+(p2-p1)*r.Float64()) + shift)
	}
	return s, l
}

// TestEvaluateAndRunMatchOracle: EvaluateDeviation and Run are the
// reference's fusion and iteration, bit for bit, on the package's own
// inversions, and within fusionTol of them on the loops'.
func TestEvaluateAndRunMatchOracle(t *testing.T) {
	qpol := leverage.DefaultQPolicy()
	battery(t, 2001, 100_000, func(r *stats.RNG, i int) {
		g := oracleGeometries[i%len(oracleGeometries)]
		sketch0 := 200*r.Float64() - 100
		sigma := math.Exp(4*r.Float64() - 2)
		u, v := 60+r.Intn(60), 60+r.Intn(60)
		switch r.Intn(16) {
		case 0:
			u = 0 // one region empty
		case 1:
			v = 0
		case 2:
			u, v = 1+r.Intn(5), 200+r.Intn(100) // far out of balance
		}
		s, l := randomSums(r, u, v, sketch0, sigma, g[0], g[1])
		if i%2 == 0 {
			got := EvaluateDeviation(s, l, sketch0, sigma, g[0], g[1])
			if same := fuseDeviation(ShapeDelta, D0Delta, s, l, sketch0, sigma, g[0], g[1]); !sameBits(got, same) {
				t.Errorf("EvaluateDeviation(%+v, %+v, %v, %v, %v, %v) = %v, the reference fusion %v", s, l, sketch0, sigma, g[0], g[1], got, same)
			}
			want := oracleEvaluateDeviation(s, l, sketch0, sigma, g[0], g[1])
			if !near(got, want, fusionTol(s, l, sketch0, sigma, g[0], g[1])) {
				t.Errorf("EvaluateDeviation(%+v, %+v, %v, %v, %v, %v) = %v, on the loops %v", s, l, sketch0, sigma, g[0], g[1], got, want)
			}
			return
		}
		b := leverage.Boundaries{Center: sketch0, Sigma: sigma, P1: g[0], P2: g[1]}
		opts := paperOptions
		switch r.Intn(8) {
		case 0:
			b.Sigma = 0
		case 1:
			opts.Mode = LambdaFixed
		case 2, 3, 4:
			opts.SketchBound = 0.1 * sigma * r.Float64()
		}
		got := Run(s, l, b, qpol, opts)
		if same := runWith(EvaluateDeviation, s, l, b, qpol, opts); !sameResult(got, same) {
			t.Errorf("Run(%+v, %+v, %+v, %+v) =\n %+v, the reference iteration\n %+v", s, l, b, opts, got, same)
		}
		if want := oracleRun(s, l, b, qpol, opts); !runMatches(got, want, s, l, b) {
			t.Errorf("Run(%+v, %+v, %+v, %+v) =\n %+v, on the loops\n %+v", s, l, b, opts, got, want)
		}
	})
}

// TestSlopesClosedForm holds slopes to a Richardson-extrapolated central
// difference of log R and G over δ ∈ [−4, 4] on every oracle geometry:
// D(h) = [f(δ+h) − f(δ−h)]/2h and (4·D(h/2) − D(h))/3, whose truncation
// error is O(h⁴) and whose rounding is a few u·|f|/h.
func TestSlopesClosedForm(t *testing.T) {
	const h, tol = 1.0 / 256, 1e-9
	richardson := func(f func(float64) float64, x float64) float64 {
		d := func(h float64) float64 { return (f(x+h) - f(x-h)) / (2 * h) }
		return (4*d(h/2) - d(h)) / 3
	}
	worst := 0.0
	for _, g := range oracleGeometries {
		p1, p2 := g[0], g[1]
		logR := func(d float64) float64 { return math.Log(ExpectedDevRatio(d, p1, p2)) }
		objective := func(d float64) float64 { return expectedD0Std(d, p1, p2) }
		for k := -512; k <= 512; k++ {
			delta := float64(k) / 128
			gotR, gotG := slopes(delta, p1, p2)
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"d log R/dδ", gotR, richardson(logR, delta)},
				{"G′", gotG, richardson(objective, delta)},
			} {
				rel := math.Abs(c.got-c.want) / math.Abs(c.want)
				worst = math.Max(worst, rel)
				if !(rel <= tol) {
					t.Errorf("%s at δ = %v, p1 = %v, p2 = %v: %v, Richardson %v (relative %.2g)", c.name, delta, p1, p2, c.got, c.want, rel)
				}
			}
		}
	}
	t.Logf("largest relative difference %.2g", worst)
}

// TestOneUlpInversionMovesTheFusionLittle: moving either inversion of
// EvaluateDeviation by one ulp moves the fused δ̂ by at most 10⁻¹³. The
// closed-form slopes are smooth in δ, so what moves is the step itself and
// the slopes' own rounding (see slopeNoise); slopes by central differences
// at δ ± 10⁻⁴ divided their rounding by 2·10⁻⁴ and moved δ̂ by up to
// 2.9·10⁻¹¹.
func TestOneUlpInversionMovesTheFusionLittle(t *testing.T) {
	const bound = 1e-13
	up := func(f inversion, dir float64) inversion {
		return func(x, p1, p2 float64) float64 { return math.Nextafter(f(x, p1, p2), dir) }
	}
	var worst atomic.Uint64 // the bits of the largest move, a non-negative double
	battery(t, 3001, 100_000, func(r *stats.RNG, i int) {
		g := oracleGeometries[i%len(oracleGeometries)]
		sketch0, sigma := 200*r.Float64()-100, math.Exp(4*r.Float64()-2)
		s, l := randomSums(r, 1+r.Intn(200), 1+r.Intn(200), sketch0, sigma, g[0], g[1])
		at := fuseDeviation(ShapeDelta, D0Delta, s, l, sketch0, sigma, g[0], g[1])
		for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
			for _, moved := range []float64{
				fuseDeviation(up(ShapeDelta, dir), D0Delta, s, l, sketch0, sigma, g[0], g[1]),
				fuseDeviation(ShapeDelta, up(D0Delta, dir), s, l, sketch0, sigma, g[0], g[1]),
			} {
				d := math.Abs(moved - at)
				if !(d <= bound) {
					t.Errorf("%+v, %+v, sketch0 %v, σ %v, p1 %v, p2 %v: one ulp moves δ̂ = %v by %.2g", s, l, sketch0, sigma, g[0], g[1], at, d)
				}
				for w := worst.Load(); d > math.Float64frombits(w) && !worst.CompareAndSwap(w, math.Float64bits(d)); w = worst.Load() {
				}
			}
		}
	})
	t.Logf("largest move %.2g", math.Float64frombits(worst.Load()))
}

// around returns v and its two neighbours.
func around(v float64) []float64 {
	return []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))}
}

// nodeDeltas returns the δ of every table node in heap order, the two ends
// last: the arguments fill evaluated f at.
func nodeDeltas() []float64 {
	ds := make([]float64, tableNodes)
	var walk func(node int, lo, hi float64)
	walk = func(node int, lo, hi float64) {
		if node < tableNodes {
			mid := (lo + hi) / 2
			ds[node] = mid
			walk(2*node, lo, mid)
			walk(2*node+1, mid, hi)
		}
	}
	walk(1, -shapeDeltaMax, shapeDeltaMax)
	return append(ds[1:], -shapeDeltaMax, shapeDeltaMax)
}

func TestInversionEdges(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	baseDevs := []float64{0, math.Copysign(0, -1), -1, inf, -inf, nan, math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-300, 1e300}
	baseDevs = append(baseDevs, around(1)...)
	baseD0s := []float64{0, math.Copysign(0, -1), nan, inf, -inf, 4, -4, 4.5, -4.5, 100, -100, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	deltas := nodeDeltas()
	for gi, g := range oracleGeometries {
		p1, p2 := g[0], g[1]
		devs, d0s := baseDevs, baseD0s
		// Targets that are exactly what the table holds at a node or an
		// end give that node's δ; one ulp either side, the contract's
		// tolerance.
		if gi == 0 || !testing.Short() {
			geo := geometryFor(p1, p2)
			ratios := append(geo.ratio.mid[1:], geo.ratio.lo, geo.ratio.hi)
			objectives := append(geo.d0.mid[1:], geo.d0.lo, geo.d0.hi)
			for k, delta := range deltas {
				if got := ShapeDelta(ratios[k], p1, p2); !sameBits(got, delta) {
					t.Errorf("ShapeDelta(R(%v) = %v, %v, %v) = %v, want the node", delta, ratios[k], p1, p2, got)
				}
				if got := D0Delta(objectives[k], p1, p2); !sameBits(got, delta) {
					t.Errorf("D0Delta(G(%v) = %v, %v, %v) = %v, want the node", delta, objectives[k], p1, p2, got)
				}
				devs = append(devs, around(ratios[k])...)
				d0s = append(d0s, around(objectives[k])...)
			}
		}
		for _, dev := range devs {
			got, want := ShapeDelta(dev, p1, p2), oracleShapeDelta(dev, p1, p2)
			if !near(got, want, anyTol) {
				t.Errorf("ShapeDelta(%v, %v, %v) = %v, loop %v", dev, p1, p2, got, want)
			}
		}
		for _, d0 := range d0s {
			if got, want := D0Delta(d0, p1, p2), oracleD0Delta(d0, p1, p2); !near(got, want, anyTol) {
				t.Errorf("D0Delta(%v, %v, %v) = %v, loop %v", d0, p1, p2, got, want)
			}
		}
	}
}

// TestTableHoldsTheLoopsOwnMidpoints pins the table's layout: walking it by
// comparisons visits exactly the midpoints the loop computes.
func TestTableHoldsTheLoopsOwnMidpoints(t *testing.T) {
	geo := geometryFor(0.5, 2)
	r := stats.NewRNG(5)
	for trial := 0; trial < 2000; trial++ {
		lo, hi, node := -shapeDeltaMax, shapeDeltaMax, 1
		for level := 0; level < tableLevels; level++ {
			mid := (lo + hi) / 2
			if want := ExpectedDevRatio(mid, 0.5, 2); !sameBits(geo.ratio.mid[node], want) {
				t.Fatalf("ratio table node %d holds %v, R(%v) = %v", node, geo.ratio.mid[node], mid, want)
			}
			if want := expectedD0Std(mid, 0.5, 2); !sameBits(geo.d0.mid[node], want) {
				t.Fatalf("d0 table node %d holds %v, G(%v) = %v", node, geo.d0.mid[node], mid, want)
			}
			if r.Intn(2) == 0 {
				lo, node = mid, 2*node+1
			} else {
				hi, node = mid, 2*node
			}
		}
	}
}

// TestDegenerateInputsMatchOracle: the cases Run and EvaluateDeviation
// special-case, and factors NewBoundaries would refuse but the exported
// inversions accept.
func TestDegenerateInputsMatchOracle(t *testing.T) {
	r := stats.NewRNG(11)
	qpol := leverage.DefaultQPolicy()
	for _, uv := range [][2]int{{0, 0}, {0, 90}, {90, 0}, {1, 1}, {90, 90}, {1, 300}, {300, 1}} {
		for _, sigma := range []float64{0, 1e-300, 1, 20, 1e300, math.Inf(1)} {
			s, l := randomSums(r, uv[0], uv[1], 50, 20, 0.5, 2)
			got := EvaluateDeviation(s, l, 50, sigma, 0.5, 2)
			if same := fuseDeviation(ShapeDelta, D0Delta, s, l, 50, sigma, 0.5, 2); !sameBits(got, same) {
				t.Errorf("EvaluateDeviation |S|=%d |L|=%d σ=%v = %v, the reference fusion %v", uv[0], uv[1], sigma, got, same)
			}
			if want := oracleEvaluateDeviation(s, l, 50, sigma, 0.5, 2); !near(got, want, fusionTol(s, l, 50, sigma, 0.5, 2)) {
				t.Errorf("EvaluateDeviation |S|=%d |L|=%d σ=%v = %v, on the loops %v", uv[0], uv[1], sigma, got, want)
			}
			b := leverage.Boundaries{Center: 50, Sigma: sigma, P1: 0.5, P2: 2}
			res := Run(s, l, b, qpol, paperOptions)
			if same := runWith(EvaluateDeviation, s, l, b, qpol, paperOptions); !sameResult(res, same) {
				t.Errorf("Run |S|=%d |L|=%d σ=%v = %+v, the reference iteration %+v", uv[0], uv[1], sigma, res, same)
			}
			if want := oracleRun(s, l, b, qpol, paperOptions); !runMatches(res, want, s, l, b) {
				t.Errorf("Run |S|=%d |L|=%d σ=%v = %+v, on the loops %+v", uv[0], uv[1], sigma, res, want)
			}
		}
	}
	nan := math.NaN()
	for _, g := range [][2]float64{{2, 0.5}, {0, 0}, {-1, 1}, {nan, 2}, {0.5, nan}, {0.5, math.Inf(1)}, {1e-9, 1e9}} {
		for _, x := range []float64{0.3, 1, 1.7, -0.2, 0} {
			got, want := ShapeDelta(x, g[0], g[1]), oracleShapeDelta(x, g[0], g[1])
			if !near(got, want, anyTol) {
				t.Errorf("ShapeDelta(%v, %v, %v) = %v, loop %v", x, g[0], g[1], got, want)
			}
			if got, want := D0Delta(x, g[0], g[1]), oracleD0Delta(x, g[0], g[1]); !near(got, want, anyTol) {
				t.Errorf("D0Delta(%v, %v, %v) = %v, loop %v", x, g[0], g[1], got, want)
			}
		}
	}
}

// TestGeometryFirstUseIsSafeFromManyGoroutines: 64 goroutines meet a
// geometry nobody has used; every one must get the same answer, within the
// contract of the loops', whether it built the tables, waited for them or
// found them. Run under -race.
func TestGeometryFirstUseIsSafeFromManyGoroutines(t *testing.T) {
	const p1, p2, dev, d0 = 0.37, 1.9, 1.03, -0.02
	const n = 64
	var shapes, objectives [n]float64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			shapes[g], objectives[g] = ShapeDelta(dev, p1, p2), D0Delta(d0, p1, p2)
		}()
	}
	close(start)
	wg.Wait()
	wantR, wantG := oracleShapeDelta(dev, p1, p2), oracleD0Delta(d0, p1, p2)
	if !near(shapes[0], wantR, blockTol) || !near(objectives[0], wantG, blockTol) {
		t.Errorf("first use: ShapeDelta %v (loop %v), D0Delta %v (loop %v)", shapes[0], wantR, objectives[0], wantG)
	}
	for g := range shapes {
		if !sameBits(shapes[g], shapes[0]) || !sameBits(objectives[g], objectives[0]) {
			t.Errorf("goroutine %d: ShapeDelta %v, D0Delta %v; goroutine 0: %v, %v", g, shapes[g], objectives[g], shapes[0], objectives[0])
		}
	}
}
