package modulate

import (
	"testing"

	"isla/internal/leverage"
	"isla/internal/stats"
)

// benchCase is one block's Algorithm 2 input: the S/L sums of a small
// sample and the boundaries it was accumulated under.
type benchCase struct {
	s, l   stats.PowerSums
	bounds leverage.Boundaries
	opts   Options
}

// benchCases draws n such inputs of about `samples` values each — the size
// a ~2 k-sample statement leaves per block — with sketch0 off the true mean
// by a varying fraction of σ, so no two inversions walk the same search
// path and a branch predictor cannot learn one.
func benchCases(dist stats.Dist, mu, sigma float64, samples, n int) []benchCase {
	cases := make([]benchCase, n)
	r := stats.NewRNG(99)
	for i := range cases {
		sketch0 := mu + (r.Float64()-0.5)*0.2*sigma
		bounds, err := leverage.NewBoundaries(sketch0, sigma, 0.5, 2)
		if err != nil {
			panic(err)
		}
		acc := leverage.NewAccum(bounds)
		for k := 0; k < samples; k++ {
			acc.Add(dist.Sample(r))
		}
		cases[i] = benchCase{s: acc.S, l: acc.L, bounds: bounds,
			opts: Options{Eta: 0.5, Lambda: 0.8, SketchBound: 0.1 * sigma}}
	}
	return cases
}

var benchSink Result

// BenchmarkRun times Algorithm 2 on one block's sums: the deviation
// evaluation (two inversions) plus the iteration. Run it at -cpu 1.
func BenchmarkRun(b *testing.B) {
	for _, bc := range []struct {
		name  string
		dist  stats.Dist
		mu, s float64
	}{
		{"normal", stats.Normal{Mu: 100, Sigma: 20}, 100, 20},
		{"skewed", stats.Exponential{Gamma: 0.05}, 20, 20},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cases := benchCases(bc.dist, bc.mu, bc.s, 180, 256)
			qpol := leverage.DefaultQPolicy()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := &cases[i%len(cases)]
				benchSink = Run(c.s, c.l, c.bounds, qpol, c.opts)
			}
		})
	}
}
