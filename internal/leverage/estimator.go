package leverage

import (
	"math"

	"isla/internal/stats"
)

// KC computes the coefficients of the leverage-based estimator
// µ̂ = f(α) = k·α + c (Theorem 3) from the streaming power sums of the S
// and L samples and the allocation parameter q.
//
// With T = Σx²+Σy², u = |S|, v = |L|:
//
//	c = (Σx + Σy) / (u + v)
//	k = (T·Σx − Σx³) / ((1 + v/(qu)) · (u·T − Σx²))
//	  + v·Σy³ / ((qu + v) · Σy²)
//	  − c
//
// Degenerate cases (one or both regions empty, or zero power sums) fall
// back to k = 0 with c the plain average of whatever samples exist; the
// iteration layer then modulates the sketch alone.
func KC(s, l stats.PowerSums, q float64) (k, c float64) {
	u := float64(s.Count)
	v := float64(l.Count)
	if s.Count == 0 && l.Count == 0 {
		return 0, 0
	}
	c = (s.Sum + l.Sum) / (u + v)
	if s.Count == 0 || l.Count == 0 || q <= 0 {
		return 0, c
	}
	T := s.Sum2 + l.Sum2
	denomS := (1 + v/(q*u)) * (u*T - s.Sum2)
	denomL := (q*u + v) * l.Sum2
	if T <= 0 || denomS == 0 || denomL == 0 {
		return 0, c
	}
	k = (T*s.Sum-s.Sum3)/denomS + v*l.Sum3/denomL - c
	if math.IsNaN(k) || math.IsInf(k, 0) {
		return 0, c
	}
	return k, c
}
