// Package leverage implements the paper's sophisticated leverage strategy
// (Section IV): data boundaries that divide a distribution into five regions
// (TS/S/N/L/TL), leverage scores reflecting each sample's individual
// contribution, the two-constraint leverage normalization with the
// allocation parameter q, and the re-weighted probability generation of
// Eq. (2).
//
// Two computation paths are provided. The streaming path works from the
// per-region power sums (count, Σa, Σa², Σa³) that the sampling phase
// maintains — no sample is ever stored, and results are independent of the
// sampling sequence. The explicit path works from materialized sample
// slices; it exists so tests can verify that the closed form of Theorem 3
// agrees with a direct evaluation of the definition.
package leverage

import (
	"errors"
	"fmt"
	"math"

	"isla/internal/stats"
)

// Region identifies which of the five data-boundary regions a value falls
// in (paper §IV-A1, Fig. 3).
type Region int

// The five regions, ordered by value.
const (
	TooSmall Region = iota // (−∞, sketch0−p2σ]     — low outliers, discarded
	Small                  // (sketch0−p2σ, sketch0−p1σ) — participates, leverage 1−h
	Normal                 // [sketch0−p1σ, sketch0+p1σ] — discarded (symmetric core)
	Large                  // (sketch0+p1σ, sketch0+p2σ) — participates, leverage h
	TooLarge               // [sketch0+p2σ, +∞)      — high outliers, discarded
)

// String returns the paper's abbreviation for the region.
func (g Region) String() string {
	switch g {
	case TooSmall:
		return "TS"
	case Small:
		return "S"
	case Normal:
		return "N"
	case Large:
		return "L"
	case TooLarge:
		return "TL"
	default:
		return fmt.Sprintf("Region(%d)", int(g))
	}
}

// Boundaries is the data-division criterion: the five regions induced by
// sketch0, σ and the boundary parameters p1 < p2.
type Boundaries struct {
	Center float64 // sketch0, the pilot sketch estimate
	Sigma  float64 // estimated standard deviation
	P1     float64 // inner boundary factor (paper default 0.5)
	P2     float64 // outer boundary factor (paper default 2.0)
}

// NewBoundaries validates and builds a Boundaries value.
func NewBoundaries(center, sigma, p1, p2 float64) (Boundaries, error) {
	if sigma < 0 {
		return Boundaries{}, errors.New("leverage: negative sigma")
	}
	if !(p1 > 0 && p2 > p1) {
		return Boundaries{}, fmt.Errorf("leverage: need 0 < p1 < p2, got p1=%v p2=%v", p1, p2)
	}
	return Boundaries{Center: center, Sigma: sigma, P1: p1, P2: p2}, nil
}

// Classify returns the region v falls in.
func (b Boundaries) Classify(v float64) Region {
	lo2 := b.Center - b.P2*b.Sigma
	lo1 := b.Center - b.P1*b.Sigma
	hi1 := b.Center + b.P1*b.Sigma
	hi2 := b.Center + b.P2*b.Sigma
	switch {
	case v <= lo2:
		return TooSmall
	case v < lo1:
		return Small
	case v <= hi1:
		return Normal
	case v < hi2:
		return Large
	default:
		return TooLarge
	}
}

// SLo and SHi return the open interval of the S region.
func (b Boundaries) SLo() float64 { return b.Center - b.P2*b.Sigma }

// SHi returns the upper end of the S region.
func (b Boundaries) SHi() float64 { return b.Center - b.P1*b.Sigma }

// LLo returns the lower end of the L region.
func (b Boundaries) LLo() float64 { return b.Center + b.P1*b.Sigma }

// LHi returns the upper end of the L region.
func (b Boundaries) LHi() float64 { return b.Center + b.P2*b.Sigma }

// Accum is the per-block sampling-phase accumulator of Algorithm 1: samples
// falling in S or L update the corresponding power sums; everything else is
// dropped on the spot. The zero value is unusable — construct with NewAccum.
type Accum struct {
	Bounds Boundaries
	S      stats.PowerSums // paramS: count, Σa, Σa², Σa³ of Small samples
	L      stats.PowerSums // paramL: same for Large samples
	Seen   int64           // total samples offered, including discarded ones
}

// NewAccum returns an accumulator classifying with bounds.
func NewAccum(bounds Boundaries) *Accum {
	return &Accum{Bounds: bounds}
}

// Add classifies one sample and updates paramS/paramL (Algorithm 1,
// updateParams). The sample itself is not retained.
func (a *Accum) Add(v float64) {
	a.Seen++
	switch a.Bounds.Classify(v) {
	case Small:
		a.S.Add(v)
	case Large:
		a.L.Add(v)
	}
}

// scratchLen is the run AddShifted classifies per pass; two scratch buffers
// of this many values live on its stack (2 KiB together). A power of two
// lets the cursors be masked instead of bounds-checked, and a run this short
// lets the out-of-order core classify the next run while the latency-bound
// sums of this one drain (128 measured ~8 % faster than 256 or 64).
const scratchLen = 128

// AddShifted classifies every element of vs, translated by shift, and
// updates paramS/paramL — the chunk form of Add(v+shift) that the batched
// sampling path feeds. It works in two passes over runs of scratchLen
// values. The first compacts the run's S values and its L values, each in
// arrival order, into a scratch buffer of their own: every value is stored
// at both cursors unconditionally and a cursor moves on only past a value of
// its region, so a rejected value is overwritten by the next store. The
// second folds each buffer into its power sums. On bell-shaped data the two
// inner region tests are coin flips, and a mispredicted branch per sample
// costs more than the stores: the four comparisons of Boundaries.Classify
// are therefore materialized as 0/1 and combined with bit operations that
// reproduce its first-match-wins ladder exactly — NaN and ±Inf values and
// bounds NewBoundaries would refuse classify as Classify has them — and no
// conditional jump is left in the loop. Each sum receives the addends Add
// would give it, in the same order (S and L never share a sum), so the
// result is bit-identical to the scalar loop.
func (a *Accum) AddShifted(vs []float64, shift float64) {
	b := a.Bounds
	lo2 := b.Center - b.P2*b.Sigma
	lo1 := b.Center - b.P1*b.Sigma
	hi1 := b.Center + b.P1*b.Sigma
	hi2 := b.Center + b.P2*b.Sigma
	a.Seen += int64(len(vs))
	var sbuf, lbuf [scratchLen]float64
	for len(vs) > 0 {
		run := vs[:min(len(vs), scratchLen)]
		vs = vs[len(run):]
		ns, nl := 0, 0
		for _, v := range run {
			v += shift
			// A cursor never passes the position in the run, so the masks
			// change no index; they only spare the bounds checks.
			sbuf[ns&(scratchLen-1)] = v
			lbuf[nl&(scratchLen-1)] = v
			var toLo2, belowLo1, toHi1, belowHi2 int
			if v <= lo2 {
				toLo2 = 1
			}
			if v < lo1 {
				belowLo1 = 1
			}
			if v <= hi1 {
				toHi1 = 1
			}
			if v < hi2 {
				belowHi2 = 1
			}
			ns += belowLo1 &^ toLo2
			nl += belowHi2 &^ (toLo2 | belowLo1 | toHi1)
		}
		a.S.AddSlice(sbuf[:ns])
		a.L.AddSlice(lbuf[:nl])
	}
}

// Merge folds another accumulator with identical boundaries into the
// receiver; this powers the online-aggregation extension.
func (a *Accum) Merge(o *Accum) error {
	if a.Bounds != o.Bounds {
		return errors.New("leverage: merging accumulators with different boundaries")
	}
	a.S.Merge(o.S)
	a.L.Merge(o.L)
	a.Seen += o.Seen
	return nil
}

// Dev returns the deviation degree dev = |S|/|L| (paper §IV-A4). It returns
// +Inf conventionally when |L| = 0 and |S| > 0, and 1 when both are empty
// (no evidence of deviation).
func (a *Accum) Dev() float64 {
	if a.L.Count == 0 {
		if a.S.Count == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(a.S.Count) / float64(a.L.Count)
}

// QPolicy chooses the leverage-allocating parameter q from the deviation
// degree (paper §IV-A4 and §VIII "Parameters"). The zero value is invalid;
// use DefaultQPolicy.
type QPolicy struct {
	// MildLo..MildHi bracket "no meaningful deviation": q = 1.
	MildLo, MildHi float64
	// ModerateLo..ModerateHi bracket the moderate band where q' = QMild.
	ModerateLo, ModerateHi float64
	// QMild and QSevere are the q' values for moderate and severe deviation.
	QMild, QSevere float64
}

// DefaultQPolicy returns the paper's experimental setting:
// dev ∈ (0.97, 1.03) → q = 1; dev ∈ (0.94, 0.97] ∪ [1.03, 1.06) → q′ = 5;
// otherwise q′ = 10.
func DefaultQPolicy() QPolicy {
	return QPolicy{
		MildLo: 0.97, MildHi: 1.03,
		ModerateLo: 0.94, ModerateHi: 1.06,
		QMild: 5, QSevere: 10,
	}
}

// Q maps a deviation degree to the allocation parameter q. When |S| > |L|
// (dev > 1) the S side's allocated leverage sum must shrink, so q = 1/q′;
// when |S| < |L|, q = q′ (paper §IV-A4).
func (p QPolicy) Q(dev float64) float64 {
	var qp float64
	switch {
	case dev > p.MildLo && dev < p.MildHi:
		return 1
	case dev > p.ModerateLo && dev < p.ModerateHi:
		qp = p.QMild
	default:
		qp = p.QSevere
	}
	if dev > 1 {
		return 1 / qp
	}
	return qp
}
