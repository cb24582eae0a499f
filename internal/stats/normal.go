package stats

import (
	"errors"
	"fmt"
	"math"
)

// NormalCDF returns Φ((x-mu)/sigma), the cumulative distribution function
// of the N(mu, sigma²) distribution evaluated at x.
func NormalCDF(x, mu, sigma float64) float64 {
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// StdNormalCDF returns Φ(z) for the standard normal distribution.
func StdNormalCDF(z float64) float64 {
	return NormalCDF(z, 0, 1)
}

// StdNormalPDF returns φ(z), the standard normal density at z.
func StdNormalPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

// InvNormalCDF returns Φ⁻¹(p), the standard normal quantile function.
//
// The implementation uses Peter Acklam's rational approximation refined by
// one step of Halley's method on Φ, giving about 15 significant digits over
// p ∈ (0, 1). It panics if p is outside (0, 1).
func InvNormalCDF(p float64) float64 {
	if !(p > 0 && p < 1) {
		panic("stats: InvNormalCDF requires p in (0,1)")
	}
	// Coefficients for Acklam's approximation.
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
			-2.759285104469687e+02, 1.383577518672690e+02,
			-3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
			-1.556989798598866e+02, 6.680131188771972e+01,
			-1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
			-2.400758277161838e+00, -2.549732539343734e+00,
			4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
			2.445134137142996e+00, 3.754408661907416e+00}
	)
	const plow, phigh = 0.02425, 1 - 0.02425

	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := StdNormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// ZValue returns the two-sided critical value u for confidence level beta,
// i.e. u such that P(-u ≤ Z ≤ u) = beta for standard normal Z. This is the
// "u determined by β" of the paper's Definition 1.
func ZValue(beta float64) (float64, error) {
	if !(beta > 0 && beta < 1) {
		return 0, errors.New("stats: confidence must be in (0,1)")
	}
	return InvNormalCDF((1 + beta) / 2), nil
}

// RequiredSampleSize returns the sample size m = u²σ²/e² (paper Eq. 1)
// needed so that a mean estimate from m i.i.d. samples with standard
// deviation sigma lands within ±e of the truth with confidence beta.
// The result is always at least 1. A sigma that is not a number — a pilot
// that drew a NaN row — is refused like a negative one.
func RequiredSampleSize(sigma, e, beta float64) (int64, error) {
	if !(sigma >= 0) {
		return 0, fmt.Errorf("stats: standard deviation %v is not a non-negative number", sigma)
	}
	if !(e > 0) {
		return 0, errors.New("stats: precision must be positive")
	}
	u, err := ZValue(beta)
	if err != nil {
		return 0, err
	}
	m := math.Ceil(u * u * sigma * sigma / (e * e))
	if m < 1 {
		m = 1
	}
	if m > math.MaxInt64/2 {
		return 0, errors.New("stats: required sample size overflows")
	}
	return int64(m), nil
}

// ConfidenceInterval describes a symmetric interval Center ± HalfWidth with
// the stated confidence level.
type ConfidenceInterval struct {
	Center     float64
	HalfWidth  float64
	Confidence float64
}

// Lo returns the lower endpoint of the interval.
func (ci ConfidenceInterval) Lo() float64 { return ci.Center - ci.HalfWidth }

// Hi returns the upper endpoint of the interval.
func (ci ConfidenceInterval) Hi() float64 { return ci.Center + ci.HalfWidth }

// Contains reports whether v lies inside the interval (inclusive).
func (ci ConfidenceInterval) Contains(v float64) bool {
	return v >= ci.Lo() && v <= ci.Hi()
}

// MeanCI returns the confidence interval mean ± u·σ/√m for a sample mean
// (paper Definition 1).
func MeanCI(mean, sigma float64, m int64, beta float64) (ConfidenceInterval, error) {
	if m <= 0 {
		return ConfidenceInterval{}, errors.New("stats: sample size must be positive")
	}
	u, err := ZValue(beta)
	if err != nil {
		return ConfidenceInterval{}, err
	}
	return ConfidenceInterval{
		Center:     mean,
		HalfWidth:  u * sigma / math.Sqrt(float64(m)),
		Confidence: beta,
	}, nil
}
