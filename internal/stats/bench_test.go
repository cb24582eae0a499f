package stats

import (
	"fmt"
	"testing"
)

// BenchmarkFillInt63n is the RNG leg of the sampling kernel on its own:
// one ChunkSize-sized index fill per iteration, for the row counts of the
// layered benchmark's 16- and 1-block tables.
func BenchmarkFillInt63n(b *testing.B) {
	const chunk = 16384 // block.ChunkSize
	for _, n := range []int64{250_000, 4_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := NewRNG(1)
			dst := make([]int64, chunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.FillInt63n(dst, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/chunk, "ns/sample")
		})
	}
}
