package stats

import (
	"fmt"
	"math"
)

// Dist is a one-dimensional probability distribution that can produce
// variates and report its true moments. The true mean is used by the
// benchmark harness as the golden answer an estimator is judged against.
type Dist interface {
	// Sample draws one variate using r.
	Sample(r *RNG) float64
	// Mean returns the exact expectation of the distribution.
	Mean() float64
	// StdDev returns the exact standard deviation.
	StdDev() float64
	// String describes the distribution (e.g. "N(100, 20^2)").
	String() string
}

// Normal is the N(Mu, Sigma²) distribution.
type Normal struct {
	Mu    float64
	Sigma float64
}

// Sample draws a normal variate.
func (n Normal) Sample(r *RNG) float64 { return n.Mu + n.Sigma*r.NormFloat64() }

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

// StdDev returns Sigma.
func (n Normal) StdDev() float64 { return n.Sigma }

func (n Normal) String() string { return fmt.Sprintf("N(%g, %g^2)", n.Mu, n.Sigma) }

// Exponential is the Exp(Gamma) distribution with density γe^{-γx}, x>0.
// Its mean is 1/γ, matching the paper's Table VI setup.
type Exponential struct {
	Gamma float64
}

// Sample draws an exponential variate.
func (e Exponential) Sample(r *RNG) float64 { return r.ExpFloat64() / e.Gamma }

// Mean returns 1/Gamma.
func (e Exponential) Mean() float64 { return 1 / e.Gamma }

// StdDev returns 1/Gamma.
func (e Exponential) StdDev() float64 { return 1 / e.Gamma }

func (e Exponential) String() string { return fmt.Sprintf("Exp(%g)", e.Gamma) }

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

// Sample draws a uniform variate.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// StdDev returns (Hi-Lo)/sqrt(12).
func (u Uniform) StdDev() float64 { return (u.Hi - u.Lo) / math.Sqrt(12) }

func (u Uniform) String() string { return fmt.Sprintf("U[%g, %g]", u.Lo, u.Hi) }

// LogNormal is the distribution of exp(N(Mu, Sigma²)); used by the
// real-data-like generators to model heavy right tails.
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// Sample draws a log-normal variate.
func (l LogNormal) Sample(r *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean returns exp(Mu + Sigma²/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// StdDev returns the exact log-normal standard deviation.
func (l LogNormal) StdDev() float64 {
	s2 := l.Sigma * l.Sigma
	return math.Sqrt((math.Exp(s2) - 1)) * math.Exp(l.Mu+s2/2)
}

func (l LogNormal) String() string { return fmt.Sprintf("LogN(%g, %g^2)", l.Mu, l.Sigma) }

// Component is one weighted part of a Mixture.
type Component struct {
	Weight float64
	Dist   Dist
}

// Mixture is a finite mixture distribution. Weights must be positive; they
// are normalized internally.
type Mixture struct {
	parts  []Component
	cum    []float64
	mean   float64
	stddev float64
	desc   string
}

// NewMixture builds a mixture from the given components. It panics on an
// empty component list or non-positive weights, since those are programming
// errors in workload construction.
func NewMixture(parts ...Component) *Mixture {
	if len(parts) == 0 {
		panic("stats: empty mixture")
	}
	total := 0.0
	for _, p := range parts {
		if p.Weight <= 0 {
			panic("stats: mixture component weight must be positive")
		}
		total += p.Weight
	}
	m := &Mixture{parts: parts, cum: make([]float64, len(parts))}
	acc := 0.0
	mean := 0.0
	for i, p := range parts {
		w := p.Weight / total
		acc += w
		m.cum[i] = acc
		mean += w * p.Dist.Mean()
	}
	m.cum[len(m.cum)-1] = 1 // guard against rounding
	m.mean = mean
	// Var(X) = Σ w_i (σ_i² + µ_i²) − µ².
	v := 0.0
	for _, p := range parts {
		w := p.Weight / total
		s := p.Dist.StdDev()
		mu := p.Dist.Mean()
		v += w * (s*s + mu*mu)
	}
	v -= mean * mean
	if v < 0 {
		v = 0
	}
	m.stddev = math.Sqrt(v)
	m.desc = fmt.Sprintf("Mixture(%d parts)", len(parts))
	return m
}

// Sample draws from a component chosen with the mixture weights.
func (m *Mixture) Sample(r *RNG) float64 {
	u := r.Float64()
	for i, c := range m.cum {
		if u < c {
			return m.parts[i].Dist.Sample(r)
		}
	}
	return m.parts[len(m.parts)-1].Dist.Sample(r)
}

// Mean returns the exact mixture mean.
func (m *Mixture) Mean() float64 { return m.mean }

// StdDev returns the exact mixture standard deviation.
func (m *Mixture) StdDev() float64 { return m.stddev }

func (m *Mixture) String() string { return m.desc }
