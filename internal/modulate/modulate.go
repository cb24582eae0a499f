// Package modulate implements the paper's iterative modulation scheme
// (Section V and Algorithm 2): evaluating the deviations of the sketch
// estimator and the leverage-based estimator, choosing a modulation strategy
// (Cases 1–5), computing self-tuning step lengths with convergence speed η
// and step-length factor λ, and running the iteration until the objective
// D = µ̂ − sketch falls below the threshold.
//
// # Step-length calibration
//
// Theorem 1 of the paper states that the iteration is unbiased exactly when
// the step-length factor equals the ratio of the estimators' true deviations,
// λ = ε/(ε+ε′). Section V-B prescribes evaluating those deviations from the
// relation of |S| and |L|: for normal data, the sample counts falling in the
// S and L windows determine how far sketch0 sits from µ. This package makes
// that evaluation quantitative: the expected ratio
//
//	R(δ) = [Φ(δ−p1) − Φ(δ−p2)] / [Φ(δ+p2) − Φ(δ+p1)],  δ = (sketch0−µ)/σ
//
// is strictly increasing in δ, so the observed dev = |S|/|L| inverts to a
// deviation estimate δ̂ and a modulation target µ* = sketch0 − δ̂·σ (clamped
// to sketch0's relaxed confidence interval, the "modulation boundary" of
// §VII-B). Each round then moves both estimators toward µ* with step lengths
// in the Theorem-1 ratio while the objective contracts by η, exactly the
// paper's loop. LambdaFixed mode instead uses the constant-λ dominance rules
// the paper lists per case; it is kept for the ablation benchmarks.
package modulate

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"isla/internal/leverage"
	"isla/internal/stats"
)

// Case enumerates the paper's modulation strategies.
type Case int

// The five modulation cases of §V-C.
const (
	// Case1: D0<0, |S|<|L| ⇒ c < sketch0 < µ. Both estimators increase;
	// µ̂ (farther from µ) moves more each round.
	Case1 Case = 1 + iota
	// Case2: D0<0, |S|>|L| ⇒ c, µ < sketch0. Sketch decreases, µ̂ adjusts
	// slightly.
	Case2
	// Case3: D0>0, |S|<|L| ⇒ c, µ > sketch0. Sketch increases, µ̂ adjusts
	// slightly.
	Case3
	// Case4: D0>0, |S|>|L| ⇒ c > sketch0 > µ. Both decrease; µ̂ moves more
	// (α goes negative).
	Case4
	// Case5: |S| ≈ |L| ⇒ sketch0 is already close to µ; return it directly.
	Case5
)

// String renders the case number.
func (c Case) String() string { return fmt.Sprintf("Case%d", int(c)) }

// Mode selects how step lengths are derived.
type Mode int

const (
	// LambdaAuto derives the Theorem-1 step ratio from the quantitative
	// deviation evaluation (default).
	LambdaAuto Mode = iota
	// LambdaFixed uses the constant step-length factor λ with the paper's
	// per-case dominance rules.
	LambdaFixed
)

// Options configures an iteration run. Zero fields are replaced by the
// paper's defaults via Normalize.
type Options struct {
	Mode      Mode    // step-length derivation; default LambdaAuto
	Eta       float64 // convergence speed η ∈ (0,1); default 0.5
	Lambda    float64 // step-length factor λ ∈ (0,1) for LambdaFixed; default 0.8
	Threshold float64 // iteration threshold thr > 0; default 1e-6
	// BalanceBand is the half-width of the |S|≈|L| band around dev=1 that
	// triggers Case 5 (paper: "(0.99, 1.01)"); default 0.01.
	BalanceBand float64
	// MaxIter caps iterations as a safety net; default 64 (the analytic
	// bound is ⌈log2(|D0|/thr)⌉, far below this for sane inputs).
	MaxIter int

	// Geometry for the quantitative deviation evaluation (LambdaAuto).
	Sigma float64 // estimated standard deviation; required for LambdaAuto
	P1    float64 // inner boundary factor; default 0.5
	P2    float64 // outer boundary factor; default 2.0
	// SketchBound clamps |µ* − sketch0| to the sketch's relaxed confidence
	// half-width (§VII-B's modulation boundary). Zero disables clamping.
	SketchBound float64
}

// Normalize fills unset fields with paper defaults and validates ranges.
func (o Options) Normalize() (Options, error) {
	if o.Eta == 0 {
		o.Eta = 0.5
	}
	if o.Lambda == 0 {
		o.Lambda = 0.8
	}
	if o.Threshold == 0 {
		o.Threshold = 1e-6
	}
	if o.BalanceBand == 0 {
		o.BalanceBand = 0.01
	}
	if o.MaxIter == 0 {
		o.MaxIter = 64
	}
	if o.P1 == 0 {
		o.P1 = 0.5
	}
	if o.P2 == 0 {
		o.P2 = 2.0
	}
	if !(o.Eta > 0 && o.Eta < 1) {
		return o, fmt.Errorf("modulate: eta %v outside (0,1)", o.Eta)
	}
	if !(o.Lambda > 0 && o.Lambda < 1) {
		return o, fmt.Errorf("modulate: lambda %v outside (0,1)", o.Lambda)
	}
	if o.Threshold <= 0 {
		return o, fmt.Errorf("modulate: threshold %v must be positive", o.Threshold)
	}
	if o.BalanceBand <= 0 {
		return o, fmt.Errorf("modulate: balance band %v must be positive", o.BalanceBand)
	}
	if o.MaxIter <= 0 {
		return o, fmt.Errorf("modulate: max iterations %v must be positive", o.MaxIter)
	}
	if !(o.P1 > 0 && o.P2 > o.P1) {
		return o, fmt.Errorf("modulate: need 0 < p1 < p2, got %v, %v", o.P1, o.P2)
	}
	if o.Sigma < 0 {
		return o, errors.New("modulate: negative sigma")
	}
	if o.SketchBound < 0 {
		return o, errors.New("modulate: negative sketch bound")
	}
	return o, nil
}

// Classify determines the modulation case from the sign of D0 = c − sketch0
// and the relation of |S| and |L| (§V-B, §V-C). balanceBand is the Case-5
// half width on dev.
func Classify(d0 float64, u, v int64, balanceBand float64) Case {
	if u == v {
		return Case5
	}
	if v > 0 && u > 0 {
		dev := float64(u) / float64(v)
		if dev > 1-balanceBand && dev < 1+balanceBand {
			return Case5
		}
	}
	if d0 < 0 {
		if u < v {
			return Case1
		}
		return Case2
	}
	if u < v {
		return Case3
	}
	return Case4
}

// ExpectedDevRatio returns R(δ), the expected |S|/|L| ratio when the data
// boundaries are centered δ standard deviations above the true mean of a
// normal distribution with boundary factors p1 < p2.
func ExpectedDevRatio(delta, p1, p2 float64) float64 {
	ps := stats.StdNormalCDF(delta-p1) - stats.StdNormalCDF(delta-p2)
	pl := stats.StdNormalCDF(delta+p2) - stats.StdNormalCDF(delta+p1)
	if pl <= 0 {
		return math.Inf(1)
	}
	return ps / pl
}

// ExpectedCStd returns the expected standardized position (in σ units,
// relative to the true mean µ) of c — the plain average of the S and L
// samples — when the data boundaries are centered δ standard deviations
// above µ. Using ∫z·φ(z)dz = φ(a)−φ(b) over (a,b):
//
//	E[(c−µ)/σ] = [φ(δ−p2)−φ(δ−p1) + φ(δ+p1)−φ(δ+p2)] / (P_S + P_L)
//
// with P_S, P_L the region masses. At δ=0 the regions are symmetric and
// c sits exactly on µ.
func ExpectedCStd(delta, p1, p2 float64) float64 {
	ps := stats.StdNormalCDF(delta-p1) - stats.StdNormalCDF(delta-p2)
	pl := stats.StdNormalCDF(delta+p2) - stats.StdNormalCDF(delta+p1)
	total := ps + pl
	if total <= 0 {
		return 0
	}
	num := stats.StdNormalPDF(delta-p2) - stats.StdNormalPDF(delta-p1) +
		stats.StdNormalPDF(delta+p1) - stats.StdNormalPDF(delta+p2)
	return num / total
}

// expectedD0Std returns G(δ) = E[(c − sketch0)/σ] = cStd(δ) − δ, the
// expected standardized objective. G is strictly decreasing (slope ≈ −1.2
// for the default boundaries), so the observed D0 inverts to a second,
// independent deviation estimate.
func expectedD0Std(delta, p1, p2 float64) float64 {
	return ExpectedCStd(delta, p1, p2) - delta
}

// shapeDeltaMax bounds the standardized deviation the inversion will report.
const shapeDeltaMax = 4.0

// ShapeDelta inverts ExpectedDevRatio: given the observed dev = |S|/|L| it
// returns the standardized deviation δ̂ = (sketch0 − µ)/σ that would produce
// that ratio under the normal model, clamped to ±4. R is strictly
// increasing in δ, so it is inverted by bisection (see invert).
func ShapeDelta(dev, p1, p2 float64) float64 {
	if math.IsNaN(dev) || dev <= 0 {
		return -shapeDeltaMax
	}
	if math.IsInf(dev, 1) {
		return shapeDeltaMax
	}
	t := &geometryFor(p1, p2).ratio
	if t.lo >= dev {
		return -shapeDeltaMax
	}
	if t.hi <= dev {
		return shapeDeltaMax
	}
	return t.invert(ExpectedDevRatio, p1, p2, dev, false)
}

// D0Delta inverts expectedD0Std: given the observed standardized objective
// d0Std = (c − sketch0)/σ it returns the deviation δ̂ that would produce it
// under the normal model. G is strictly decreasing, so it is inverted by
// the same bisection; out-of-range observations clamp to ±shapeDeltaMax.
func D0Delta(d0Std, p1, p2 float64) float64 {
	if math.IsNaN(d0Std) {
		return 0
	}
	t := &geometryFor(p1, p2).d0
	if t.lo <= d0Std {
		return -shapeDeltaMax
	}
	if t.hi >= d0Std {
		return shapeDeltaMax
	}
	return t.invert(expectedD0Std, p1, p2, d0Std, true)
}

const (
	// bisectSteps caps a bisection of [−4, 4]. Roots a few ulps from zero
	// are the only ones that use all of them: anywhere else the interval
	// runs out of doubles after 55–60.
	bisectSteps = 80
	// tableLevels is how many of those steps read f(mid) from a table: the
	// first 12 levels have 2¹²−1 midpoints, the same for every observation.
	tableLevels = 12
	tableNodes  = 1 << tableLevels
)

// inversionTable holds what one monotone f(δ, p1, p2) returns at every δ a
// bisection of [−4, 4] can ask about before it has looked at its target:
// the two ends, and the midpoints of the first tableLevels levels in heap
// order (mid[1] is f(0); the halves of node i are nodes 2i and 2i+1; mid[0]
// is unused). The entries are the doubles f itself returned for those
// arguments, so reading one is indistinguishable from calling f.
type inversionTable struct {
	lo, hi float64
	mid    [tableNodes]float64
}

func (t *inversionTable) fill(f func(delta, p1, p2 float64) float64, p1, p2 float64) {
	t.lo, t.hi = f(-shapeDeltaMax, p1, p2), f(shapeDeltaMax, p1, p2)
	var walk func(node int, lo, hi float64)
	walk = func(node int, lo, hi float64) {
		if node >= tableNodes {
			return
		}
		mid := (lo + hi) / 2
		t.mid[node] = f(mid, p1, p2)
		walk(2*node, lo, mid)
		walk(2*node+1, mid, hi)
	}
	walk(1, -shapeDeltaMax, shapeDeltaMax)
}

// invert bisects [−4, 4] for the δ at which f crosses target, f being
// increasing, or decreasing when the flag says so. It is the plain
// bisectSteps-step loop — f(mid) against target, keep the half with the
// root, return the last interval's midpoint — with two shortcuts that
// cannot change the bits it returns:
//
//   - The first tableLevels comparisons take f(mid) from the table, which
//     holds f's own result at exactly that mid.
//   - Once mid equals lo or hi the interval has no double left inside it.
//     The step either leaves (lo, hi) as it is, so every later step repeats
//     it, or collapses it to (mid, mid); both ways every later midpoint, the
//     returned one included, is this mid.
func (t *inversionTable) invert(f func(delta, p1, p2 float64) float64, p1, p2, target float64, decreasing bool) float64 {
	above := func(v float64) bool { // the root lies above the δ that gave v
		if decreasing {
			return v > target
		}
		return v < target
	}
	lo, hi := -shapeDeltaMax, shapeDeltaMax
	for node := 1; node < tableNodes; {
		mid := (lo + hi) / 2
		if above(t.mid[node]) {
			lo, node = mid, 2*node+1
		} else {
			hi, node = mid, 2*node
		}
	}
	for i := tableLevels; i < bisectSteps; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			return mid
		}
		if above(f(mid, p1, p2)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// geometry is the pair of inversion tables of one (p1, p2), keyed by the
// factors' bit patterns so that any float64, NaN included, finds its own.
type geometry struct {
	p1, p2 uint64
	ratio  inversionTable // ExpectedDevRatio
	d0     inversionTable // expectedD0Std
}

// geometries is every geometry built so far (64 KB each). P1 and P2 are
// process-wide configuration, so a process holds one, an ablation sweep a
// handful; nothing is ever dropped.
var geometries struct {
	mu   sync.Mutex                  // serializes builds
	list atomic.Pointer[[]*geometry] // replaced, never edited
}

// geometryFor returns the tables of (p1, p2), building them on first use.
// Every geometry takes this path, the default one too.
func geometryFor(p1, p2 float64) *geometry {
	k1, k2 := math.Float64bits(p1), math.Float64bits(p2)
	find := func() *geometry {
		if l := geometries.list.Load(); l != nil {
			for _, g := range *l {
				if g.p1 == k1 && g.p2 == k2 {
					return g
				}
			}
		}
		return nil
	}
	if g := find(); g != nil {
		return g
	}
	geometries.mu.Lock()
	defer geometries.mu.Unlock()
	if g := find(); g != nil {
		return g
	}
	g := &geometry{p1: k1, p2: k2}
	g.ratio.fill(ExpectedDevRatio, p1, p2)
	g.d0.fill(expectedD0Std, p1, p2)
	list := []*geometry{g}
	if l := geometries.list.Load(); l != nil {
		list = append(list, *l...)
	}
	geometries.list.Store(&list)
	return g
}

// EvaluateDeviation fuses the paper's two §V-B indicators into one estimate
// of δ = (sketch0 − µ)/σ:
//
//  1. the relation of |S| and |L| — the observed dev ratio inverts through
//     R(δ);
//  2. the relation of c and sketch0 — the observed D0 inverts through
//     G(δ) = cStd(δ) − δ.
//
// The two estimates come from (nearly) independent statistics — region
// counts versus within-region means — so they are combined with
// inverse-variance weights. Count variance uses the Poisson approximation
// Var(log dev) ≈ 1/u + 1/v mapped through the local slope of log R;
// D0 variance uses the within-sample variance of the S∪L values mapped
// through the local slope of G.
func EvaluateDeviation(s, l stats.PowerSums, sketch0, sigma, p1, p2 float64) float64 {
	u := float64(s.Count)
	v := float64(l.Count)
	if s.Count == 0 || l.Count == 0 || sigma <= 0 {
		dev := math.Inf(1)
		if l.Count > 0 {
			dev = u / v
		} else if s.Count == 0 {
			dev = 1
		}
		return ShapeDelta(dev, p1, p2)
	}
	dev := u / v
	dCounts := ShapeDelta(dev, p1, p2)

	c := (s.Sum + l.Sum) / (u + v)
	dD0 := D0Delta((c-sketch0)/sigma, p1, p2)

	// Local slopes by central differences at the count-based estimate.
	const h = 1e-4
	logR := func(d float64) float64 { return math.Log(ExpectedDevRatio(d, p1, p2)) }
	slopeR := (logR(dCounts+h) - logR(dCounts-h)) / (2 * h)
	slopeG := (expectedD0Std(dCounts+h, p1, p2) - expectedD0Std(dCounts-h, p1, p2)) / (2 * h)

	varCounts := math.Inf(1)
	if slopeR != 0 {
		varCounts = (1/u + 1/v) / (slopeR * slopeR)
	}
	// Within-S∪L variance of the sample values, standardized by σ.
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

	// Model-consistency check (the quantitative form of §VII-B's "how much
	// the answer exceeds the interval" signal): under the normal model the
	// two indicators estimate the same δ, so their disagreement normalized
	// by its sampling variance, z² = (δ̂₁−δ̂₂)²/(v₁+v₂), is ~1 in
	// expectation. A large z² means the data's shape — skew, clusters,
	// multimodality — not a sketch0 error, is driving the indicators, and
	// applying the full correction would chase the wrong model. Shrink the
	// correction toward zero (i.e. the answer toward sketch0, the unbiased
	// pilot anchor) once the disagreement exceeds ~2σ.
	diff := dCounts - dD0
	z2 := diff * diff / (varCounts + varD0 + 1e-18)
	const gate = 4.0 // 2σ: shrinks <5% of well-modeled (normal) runs
	if z2 > gate {
		fused *= gate / z2
	}
	return fused
}

// Result reports the outcome of one per-block iteration run.
type Result struct {
	Answer     float64 // the block's aggregation answer
	Alpha      float64 // final leverage degree α
	Sketch     float64 // final (modulated) sketch value
	K, C       float64 // Theorem 3 coefficients
	D0         float64 // initial objective value c − sketch0
	Case       Case    // modulation strategy used
	Iterations int     // number of modulation rounds executed
	Q          float64 // leverage allocation parameter used
	Target     float64 // modulation target µ* from the deviation evaluation
	Lambda     float64 // realized step ratio min(ε)/max(ε)
}

// Run executes Algorithm 2 on the accumulated S/L power sums.
//
// Every round shrinks the objective D = µ̂ − sketch by the factor η and
// moves the two estimators with step lengths in the Theorem-1 ratio (the
// evaluated deviation ratio in LambdaAuto mode, the constant λ with the
// paper's per-case dominance rules in LambdaFixed mode). The loop halts
// when |D| ≤ thr; the block answer is µ̂ = k·α + c.
func Run(s, l stats.PowerSums, sketch0 float64, qpol leverage.QPolicy, opts Options) (Result, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return Result{}, err
	}
	res := Result{Sketch: sketch0, Q: 1, Target: sketch0}

	u, v := s.Count, l.Count
	// Case 5: balanced regions — sketch0 already sits at µ (Algorithm 2
	// lines 1–3). Also the only sane answer when both regions are empty.
	if u == 0 && v == 0 {
		res.Case = Case5
		res.Answer = sketch0
		return res, nil
	}

	// Deviation degree and allocation parameter q (§IV-A4).
	dev := math.Inf(1)
	if v > 0 {
		dev = float64(u) / float64(v)
	}
	q := qpol.Q(dev)
	res.Q = q

	k, c := leverage.KC(s, l, q)
	res.K, res.C = k, c
	d0 := c - sketch0
	res.D0 = d0
	res.Case = Classify(d0, u, v, opts.BalanceBand)
	if res.Case == Case5 {
		res.Answer = sketch0
		return res, nil
	}

	// Quantitative deviation evaluation (§V-B): both indicators — the
	// |S|/|L| relation and the c↔sketch0 relation — locate the estimators
	// relative to µ, giving the modulation target and the step ratio.
	target := modulationTarget(s, l, sketch0, opts)
	res.Target = target

	var alpha, sketch float64
	var iters int
	if opts.Mode == LambdaFixed {
		alpha, sketch, iters = runFixed(res.Case, k, c, sketch0, d0, opts)
	} else {
		alpha, sketch, iters = runAuto(k, c, sketch0, target, d0, opts)
	}
	res.Alpha = alpha
	res.Sketch = sketch
	res.Iterations = iters
	res.Answer = k*alpha + c
	if k == 0 {
		// Degenerate objective: µ̂ cannot be steered through α (e.g. one
		// region empty). The sketch carries the whole modulation; report
		// its final position as the answer.
		res.Answer = sketch
	}
	res.Lambda = realizedLambda(target, c, sketch0)
	return res, nil
}

// modulationTarget estimates µ* from the fused deviation evaluation,
// clamped to the sketch's relaxed confidence interval when a bound is
// configured.
func modulationTarget(s, l stats.PowerSums, sketch0 float64, opts Options) float64 {
	delta := EvaluateDeviation(s, l, sketch0, opts.Sigma, opts.P1, opts.P2)
	target := sketch0 - delta*opts.Sigma
	if opts.SketchBound > 0 {
		if target > sketch0+opts.SketchBound {
			target = sketch0 + opts.SketchBound
		}
		if target < sketch0-opts.SketchBound {
			target = sketch0 - opts.SketchBound
		}
	}
	return target
}

// realizedLambda reports min(ε)/max(ε), the Theorem-1 ratio implied by the
// target.
func realizedLambda(target, c, sketch0 float64) float64 {
	ec := math.Abs(target - c)
	es := math.Abs(target - sketch0)
	lo, hi := ec, es
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi == 0 {
		return 0
	}
	return lo / hi
}

// runAuto iterates both estimators toward the evaluated target µ*. Round t
// moves each estimator a (1−η)·η^t fraction of its own total deviation, so
// the step lengths stay in the Theorem-1 ratio and D contracts by η every
// round: D_{t+1} = D_t + A_t − B_t = η·D_t.
func runAuto(k, c, sketch0, target, d0 float64, opts Options) (alpha, sketch float64, iters int) {
	devC := target - c       // total signed travel of µ̂
	devS := target - sketch0 // total signed travel of sketch
	sketch = sketch0
	d := d0
	frac := 1.0 // remaining fraction of total travel, η^t
	for math.Abs(d) > opts.Threshold && iters < opts.MaxIter {
		stepFrac := (1 - opts.Eta) * frac
		if k != 0 {
			alpha += stepFrac * devC / k
		} else {
			// µ̂ frozen: sketch absorbs the full contraction of D.
			sketch += (1 - opts.Eta) * d
			d *= opts.Eta
			iters++
			continue
		}
		sketch += stepFrac * devS
		frac *= opts.Eta
		d *= opts.Eta
		iters++
	}
	return alpha, sketch, iters
}

// runFixed implements the constant-λ variant: each round satisfies
// A − B = (η−1)·D with the per-case dominance rule min(|A|,|B|) = λ·max.
func runFixed(cs Case, k, c, sketch0, d0 float64, opts Options) (alpha, sketch float64, iters int) {
	sketch = sketch0
	d := d0
	for math.Abs(d) > opts.Threshold && iters < opts.MaxIter {
		a, b := step(cs, d, k, opts)
		if k != 0 {
			alpha += a / k
		}
		sketch += b
		d *= opts.Eta
		iters++
	}
	_ = c
	return alpha, sketch, iters
}

// step returns the signed moves (A on µ̂ through k·α, B on sketch) for one
// fixed-λ round. The pair satisfies A − B = (η−1)·D with the case's
// dominance rule min = λ·max.
func step(cs Case, d, k float64, opts Options) (a, b float64) {
	target := (opts.Eta - 1) * d // required A − B, opposite sign of d
	lam := opts.Lambda
	if k == 0 {
		// µ̂ cannot move; sketch absorbs the full correction.
		return 0, -target
	}
	switch cs {
	case Case1, Case4:
		// µ̂ dominates: B = λ·A, so A(1−λ) = target.
		a = target / (1 - lam)
		b = lam * a
	case Case2:
		// Opposite moves: sketch decreases (B < 0), µ̂ increases slightly
		// (A > 0), sketch dominating with |A| = λ|B|. Solving A − B =
		// target with A = −λB gives B = −target/(1+λ), A = λ·(−B).
		// d < 0 ⇒ target > 0 ⇒ B < 0, A > 0. ✓
		b = -target / (1 + lam)
		a = lam * (-b)
	case Case3:
		// Both increase, sketch dominating: A = λB, so B(λ−1) = target.
		// d > 0 ⇒ target < 0 ⇒ B > 0 (sketch up), A = λB > 0 (µ̂ up a bit).
		b = target / (lam - 1)
		a = lam * b
	default:
		a, b = 0, 0
	}
	return a, b
}

// IterationBound returns the paper's analytic bound t = ⌈log2(|D0|/thr)⌉ on
// the number of iterations (for η = 1/2; general η uses log base 1/η).
func IterationBound(d0, thr, eta float64) (int, error) {
	if thr <= 0 || !(eta > 0 && eta < 1) {
		return 0, errors.New("modulate: invalid threshold or eta")
	}
	ad := math.Abs(d0)
	if ad <= thr {
		return 0, nil
	}
	return int(math.Ceil(math.Log(ad/thr) / math.Log(1/eta))), nil
}
