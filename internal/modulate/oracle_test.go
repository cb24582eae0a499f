package modulate

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"isla/internal/leverage"
	"isla/internal/stats"
)

// The oracle: the two inversions as they stood before the table and the
// fixed-point exit — eighty evaluated steps each, no shortcut — and the two
// functions built on them with only the inversion swapped. Everything the
// package returns must match these bit for bit.

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

func oracleEvaluateDeviation(s, l stats.PowerSums, sketch0, sigma, p1, p2 float64) float64 {
	u := float64(s.Count)
	v := float64(l.Count)
	if s.Count == 0 || l.Count == 0 || sigma <= 0 {
		dev := math.Inf(1)
		if l.Count > 0 {
			dev = u / v
		} else if s.Count == 0 {
			dev = 1
		}
		return oracleShapeDelta(dev, p1, p2)
	}
	dev := u / v
	dCounts := oracleShapeDelta(dev, p1, p2)
	c := (s.Sum + l.Sum) / (u + v)
	dD0 := oracleD0Delta((c-sketch0)/sigma, p1, p2)

	const h = 1e-4
	logR := func(d float64) float64 { return math.Log(ExpectedDevRatio(d, p1, p2)) }
	slopeR := (logR(dCounts+h) - logR(dCounts-h)) / (2 * h)
	slopeG := (expectedD0Std(dCounts+h, p1, p2) - expectedD0Std(dCounts-h, p1, p2)) / (2 * h)
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

func oracleRun(s, l stats.PowerSums, sketch0 float64, qpol leverage.QPolicy, opts Options) (Result, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return Result{}, err
	}
	res := Result{Sketch: sketch0, Q: 1, Target: sketch0}
	u, v := s.Count, l.Count
	if u == 0 && v == 0 {
		res.Case = Case5
		res.Answer = sketch0
		return res, nil
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
	res.Case = Classify(d0, u, v, opts.BalanceBand)
	if res.Case == Case5 {
		res.Answer = sketch0
		return res, nil
	}
	target := sketch0 - oracleEvaluateDeviation(s, l, sketch0, opts.Sigma, opts.P1, opts.P2)*opts.Sigma
	if opts.SketchBound > 0 {
		target = math.Max(math.Min(target, sketch0+opts.SketchBound), sketch0-opts.SketchBound)
	}
	res.Target = target
	if opts.Mode == LambdaFixed {
		res.Alpha, res.Sketch, res.Iterations = runFixed(res.Case, k, c, sketch0, d0, opts)
	} else {
		res.Alpha, res.Sketch, res.Iterations = runAuto(k, c, sketch0, target, d0, opts)
	}
	res.Answer = k*res.Alpha + c
	if k == 0 {
		res.Answer = res.Sketch
	}
	res.Lambda = realizedLambda(target, c, sketch0)
	return res, nil
}

// sameBits is == on the bit pattern, so NaN equals NaN and −0 is not +0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameResult(a, b Result) bool {
	return sameBits(a.Answer, b.Answer) && sameBits(a.Alpha, b.Alpha) && sameBits(a.Sketch, b.Sketch) &&
		sameBits(a.K, b.K) && sameBits(a.C, b.C) && sameBits(a.D0, b.D0) && a.Case == b.Case &&
		a.Iterations == b.Iterations && sameBits(a.Q, b.Q) && sameBits(a.Target, b.Target) && sameBits(a.Lambda, b.Lambda)
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
// TestEvaluateAndRunMatchOracle a million inputs, each compared by bit
// pattern with the eighty-step loops.
func TestInversionsMatchOracleOnSeededInputs(t *testing.T) {
	battery(t, 1, 450_000, func(r *stats.RNG, i int) {
		g := oracleGeometries[i%len(oracleGeometries)]
		var dev float64
		switch i / len(oracleGeometries) % 4 {
		case 0: // what a block reports: a little off balance
			dev = math.Exp(0.5 * r.NormFloat64())
		case 1: // anything, clamped ends included
			dev = math.Exp(28*r.Float64() - 14)
		case 2: // a ratio of small counts
			dev = float64(1+r.Intn(400)) / float64(1+r.Intn(400))
		default: // a root within a hair of zero, the longest bisection
			dev = 1 + 1e-3*r.NormFloat64()
		}
		if got, want := ShapeDelta(dev, g[0], g[1]), oracleShapeDelta(dev, g[0], g[1]); !sameBits(got, want) {
			t.Errorf("ShapeDelta(%v, %v, %v) = %v, oracle %v", dev, g[0], g[1], got, want)
		}
	})
	battery(t, 1001, 450_000, func(r *stats.RNG, i int) {
		g := oracleGeometries[i%len(oracleGeometries)]
		var d0 float64
		switch i / len(oracleGeometries) % 4 {
		case 0:
			d0 = 0.05 * r.NormFloat64()
		case 1: // beyond ±4σ on both sides
			d0 = 12*r.Float64() - 6
		case 2:
			d0 = 1e-6 * r.NormFloat64()
		default: // a value G really takes
			d0 = expectedD0Std(8*r.Float64()-4, g[0], g[1])
		}
		if got, want := D0Delta(d0, g[0], g[1]), oracleD0Delta(d0, g[0], g[1]); !sameBits(got, want) {
			t.Errorf("D0Delta(%v, %v, %v) = %v, oracle %v", d0, g[0], g[1], got, want)
		}
	})
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
			want := oracleEvaluateDeviation(s, l, sketch0, sigma, g[0], g[1])
			if !sameBits(got, want) {
				t.Errorf("EvaluateDeviation(%+v, %+v, %v, %v, %v, %v) = %v, oracle %v", s, l, sketch0, sigma, g[0], g[1], got, want)
			}
			return
		}
		opts := Options{Sigma: sigma, P1: g[0], P2: g[1]}
		switch r.Intn(8) {
		case 0:
			opts.Sigma = 0
		case 1:
			opts.Mode = LambdaFixed
		case 2, 3, 4:
			opts.SketchBound = 0.1 * sigma * r.Float64()
		}
		got, err := Run(s, l, sketch0, qpol, opts)
		want, oerr := oracleRun(s, l, sketch0, qpol, opts)
		if err != nil || oerr != nil {
			t.Errorf("Run(%+v, %+v, %v, %+v): %v, oracle %v", s, l, sketch0, opts, err, oerr)
			return
		}
		if !sameResult(got, want) { // Iterations included
			t.Errorf("Run(%+v, %+v, %v, %+v) =\n %+v, oracle\n %+v", s, l, sketch0, opts, got, want)
		}
	})
}

// around returns v and its two neighbours.
func around(v float64) []float64 {
	return []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))}
}

func TestInversionEdges(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	baseDevs := []float64{0, math.Copysign(0, -1), -1, inf, -inf, nan, math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-300, 1e300}
	baseDevs = append(baseDevs, around(1)...)
	baseD0s := []float64{0, math.Copysign(0, -1), nan, inf, -inf, 4, -4, 4.5, -4.5, 100, -100, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for gi, g := range oracleGeometries {
		p1, p2 := g[0], g[1]
		devs, d0s := baseDevs, baseD0s
		// Targets that are exactly what the table holds at a midpoint or an
		// end, and one ulp either side: the comparison the table answers
		// must fall the way the evaluated one did.
		if gi == 0 || !testing.Short() {
			geo := geometryFor(p1, p2)
			for _, v := range append(geo.ratio.mid[1:], geo.ratio.lo, geo.ratio.hi) {
				devs = append(devs, around(v)...)
			}
			for _, v := range append(geo.d0.mid[1:], geo.d0.lo, geo.d0.hi) {
				d0s = append(d0s, around(v)...)
			}
		}
		for _, dev := range devs {
			if got, want := ShapeDelta(dev, p1, p2), oracleShapeDelta(dev, p1, p2); !sameBits(got, want) {
				t.Errorf("ShapeDelta(%v, %v, %v) = %v, oracle %v", dev, p1, p2, got, want)
			}
		}
		for _, d0 := range d0s {
			if got, want := D0Delta(d0, p1, p2), oracleD0Delta(d0, p1, p2); !sameBits(got, want) {
				t.Errorf("D0Delta(%v, %v, %v) = %v, oracle %v", d0, p1, p2, got, want)
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
// special-case, and factors Normalize would refuse but the exported
// inversions accept.
func TestDegenerateInputsMatchOracle(t *testing.T) {
	r := stats.NewRNG(11)
	qpol := leverage.DefaultQPolicy()
	for _, uv := range [][2]int{{0, 0}, {0, 90}, {90, 0}, {1, 1}, {90, 90}, {1, 300}, {300, 1}} {
		for _, sigma := range []float64{0, 1e-300, 1, 20, 1e300, math.Inf(1)} {
			s, l := randomSums(r, uv[0], uv[1], 50, 20, 0.5, 2)
			got := EvaluateDeviation(s, l, 50, sigma, 0.5, 2)
			if want := oracleEvaluateDeviation(s, l, 50, sigma, 0.5, 2); !sameBits(got, want) {
				t.Errorf("EvaluateDeviation |S|=%d |L|=%d σ=%v = %v, oracle %v", uv[0], uv[1], sigma, got, want)
			}
			opts := Options{Sigma: sigma}
			res, err := Run(s, l, 50, qpol, opts)
			want, oerr := oracleRun(s, l, 50, qpol, opts)
			if (err == nil) != (oerr == nil) || !sameResult(res, want) {
				t.Errorf("Run |S|=%d |L|=%d σ=%v = %+v (%v), oracle %+v (%v)", uv[0], uv[1], sigma, res, err, want, oerr)
			}
		}
	}
	nan := math.NaN()
	for _, g := range [][2]float64{{2, 0.5}, {0, 0}, {-1, 1}, {nan, 2}, {0.5, nan}, {0.5, math.Inf(1)}, {1e-9, 1e9}} {
		for _, x := range []float64{0.3, 1, 1.7, -0.2, 0} {
			if got, want := ShapeDelta(x, g[0], g[1]), oracleShapeDelta(x, g[0], g[1]); !sameBits(got, want) {
				t.Errorf("ShapeDelta(%v, %v, %v) = %v, oracle %v", x, g[0], g[1], got, want)
			}
			if got, want := D0Delta(x, g[0], g[1]), oracleD0Delta(x, g[0], g[1]); !sameBits(got, want) {
				t.Errorf("D0Delta(%v, %v, %v) = %v, oracle %v", x, g[0], g[1], got, want)
			}
		}
	}
}

// TestGeometryFirstUseIsSafeFromManyGoroutines: 64 goroutines meet a
// geometry nobody has used; every one must get the oracle's answer whether
// it built the tables, waited for them or found them. Run under -race.
func TestGeometryFirstUseIsSafeFromManyGoroutines(t *testing.T) {
	const p1, p2 = 0.37, 1.9
	wantR, wantG := oracleShapeDelta(1.03, p1, p2), oracleD0Delta(-0.02, p1, p2)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got := ShapeDelta(1.03, p1, p2); !sameBits(got, wantR) {
				t.Errorf("ShapeDelta on first use = %v, oracle %v", got, wantR)
			}
			if got := D0Delta(-0.02, p1, p2); !sameBits(got, wantG) {
				t.Errorf("D0Delta on first use = %v, oracle %v", got, wantG)
			}
		}()
	}
	close(start)
	wg.Wait()
}
