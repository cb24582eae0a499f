package leverage

// The explicit leverage computation and the direct µ̂ = kα + c evaluation:
// test oracles that cross-validate the streaming closed form KC.

import (
	"errors"

	"isla/internal/stats"
)

// LEstimate evaluates the leverage-based estimator µ̂ = kα + c directly.
func LEstimate(s, l stats.PowerSums, q, alpha float64) float64 {
	k, c := KC(s, l, q)
	return k*alpha + c
}

// Explicit holds the fully materialized leverage computation for a sample
// set — original leverages, normalization factors, normalized leverages and
// re-weighted probabilities. It mirrors the worked Example 1 / Table II of
// the paper and exists to cross-validate the streaming closed form; the
// production path never materializes samples.
type Explicit struct {
	X, Y       []float64 // S and L samples
	OrigLevX   []float64 // 1 − x²/T
	OrigLevY   []float64 // y²/T
	FacX, FacY float64   // normalization factors
	LevX, LevY []float64 // normalized leverages
	ProbX      []float64 // α·lev + (1−α)/(u+v)
	ProbY      []float64
	Alpha      float64
	Q          float64
	Estimate   float64 // Σ value·prob
}

// ErrNoSamples is returned when the explicit path gets no S or L samples.
var ErrNoSamples = errors.New("leverage: no S or L samples")

// NewExplicit runs the five normalization/probability steps of the paper's
// appendix on materialized S samples x and L samples y.
func NewExplicit(x, y []float64, q, alpha float64) (*Explicit, error) {
	if len(x) == 0 || len(y) == 0 {
		return nil, ErrNoSamples
	}
	if q <= 0 {
		return nil, errors.New("leverage: q must be positive")
	}
	u := float64(len(x))
	v := float64(len(y))
	var sx2, sy2 float64
	for _, xv := range x {
		sx2 += xv * xv
	}
	for _, yv := range y {
		sy2 += yv * yv
	}
	T := sx2 + sy2
	if T <= 0 {
		return nil, errors.New("leverage: zero total square sum")
	}
	e := &Explicit{X: x, Y: y, Alpha: alpha, Q: q}

	// Step 1: original leverage scores.
	e.OrigLevX = make([]float64, len(x))
	for i, xv := range x {
		e.OrigLevX[i] = 1 - xv*xv/T
	}
	e.OrigLevY = make([]float64, len(y))
	for j, yv := range y {
		e.OrigLevY[j] = yv * yv / T
	}

	// Steps 2–3: normalization factors = (actual score sum)/(theoretical
	// sum), with the theoretical sums fixed by Theorem 2 (Σlev = 1) and
	// Constraint 2 (levSumS/levSumL = q·u/v).
	e.FacX = (u + v/q) * (1 - sx2/(u*T))
	e.FacY = (q*u/v + 1) * (sy2 / T)

	// Step 4: normalized leverages.
	e.LevX = make([]float64, len(x))
	for i := range x {
		e.LevX[i] = e.OrigLevX[i] / e.FacX
	}
	e.LevY = make([]float64, len(y))
	for j := range y {
		e.LevY[j] = e.OrigLevY[j] / e.FacY
	}

	// Step 5: re-weighted probabilities (Eq. 2) and the estimate.
	unif := 1 / (u + v)
	e.ProbX = make([]float64, len(x))
	e.ProbY = make([]float64, len(y))
	est := 0.0
	for i, xv := range x {
		e.ProbX[i] = alpha*e.LevX[i] + (1-alpha)*unif
		est += xv * e.ProbX[i]
	}
	for j, yv := range y {
		e.ProbY[j] = alpha*e.LevY[j] + (1-alpha)*unif
		est += yv * e.ProbY[j]
	}
	e.Estimate = est
	return e, nil
}

// LevSum returns the total normalized leverage mass of the S side and the
// L side. Theorem 2 demands their sum be 1; Constraint 2 demands their
// ratio be q·u/v.
func (e *Explicit) LevSum() (sumS, sumL float64) {
	for _, l := range e.LevX {
		sumS += l
	}
	for _, l := range e.LevY {
		sumL += l
	}
	return
}

// ProbSum returns the total probability mass; it must be 1 for any α.
func (e *Explicit) ProbSum() float64 {
	t := 0.0
	for _, p := range e.ProbX {
		t += p
	}
	for _, p := range e.ProbY {
		t += p
	}
	return t
}
