package leverage

import (
	"testing"

	"isla/internal/stats"
)

// BenchmarkAddShifted is the accumulate leg of the sampling kernel on its
// own: one ChunkSize-sized chunk per iteration at the default p1/p2, on a
// symmetric and a skewed distribution (S and L each hold ~29 % of a normal
// sample, so the region tests are as unpredictable as they get). The
// chunks cycle through 1 Mi distinct values, as a real draw never repeats:
// a branch predictor learns a single chunk replayed b.N times by heart and
// hides what a comparison ladder costs.
func BenchmarkAddShifted(b *testing.B) {
	const chunk = 16384 // block.ChunkSize
	const chunks = 64
	dists := []struct {
		name          string
		d             stats.Dist
		center, sigma float64
	}{
		{"normal", stats.Normal{Mu: 100, Sigma: 20}, 100, 20},
		{"exponential", stats.Exponential{Gamma: 0.1}, 10, 10},
	}
	for _, tc := range dists {
		b.Run(tc.name, func(b *testing.B) {
			bounds, err := NewBoundaries(tc.center, tc.sigma, 0.5, 2)
			if err != nil {
				b.Fatal(err)
			}
			r := stats.NewRNG(1)
			vs := make([]float64, chunks*chunk)
			for i := range vs {
				vs[i] = tc.d.Sample(r)
			}
			acc := NewAccum(bounds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % chunks * chunk
				acc.AddShifted(vs[k:k+chunk], 0.5)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/chunk, "ns/sample")
		})
	}
}
