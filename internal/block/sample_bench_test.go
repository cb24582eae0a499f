package block

import (
	"path/filepath"
	"testing"

	"isla/internal/stats"
)

// The scalar/batch benchmark pairs below are the evidence for the batched
// sampling path: same draw count, same RNG discipline, the test-only scalar
// oracle (an Int63n per draw over the block's values held in memory, so its
// Mem/File/Mmap variants differ only in the load) vs chunked buffers. Run
// with
//
//	go test ./internal/block -bench 'Sample(Scalar|Batch)' -benchmem
//
// and compare ns/sample (reported as a custom metric).

const benchDraws = 1 << 16

func benchData(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%1000) + 0.25
	}
	return xs
}

func benchFileBlock(b *testing.B, n int) *FileBlock {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench")
	if err := WriteFile(path, benchData(n)); err != nil {
		b.Fatal(err)
	}
	fb, err := OpenFile(0, path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fb.Close() })
	return fb
}

// runScalar draws benchDraws values through the scalar oracle.
func runScalar(b *testing.B, blk Block) {
	b.Helper()
	o, err := oracleOf(blk)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(1)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.sample(r, benchDraws, func(v float64) { sink += v }); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerSample(b)
	_ = sink
}

// runBatch draws benchDraws values through the chunked path.
func runBatch(b *testing.B, blk Block) {
	b.Helper()
	r := stats.NewRNG(1)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := SampleChunks(blk, r, benchDraws, func(vs []float64) error {
			for _, v := range vs {
				sink += v
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerSample(b)
	_ = sink
}

func reportPerSample(b *testing.B) {
	b.Helper()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchDraws, "ns/sample")
}

func BenchmarkMemSampleScalar(b *testing.B) {
	runScalar(b, NewMemBlock(0, benchData(1_000_000)))
}

func BenchmarkMemSampleBatch(b *testing.B) {
	runBatch(b, NewMemBlock(0, benchData(1_000_000)))
}

func BenchmarkFileSampleScalar(b *testing.B) {
	runScalar(b, benchFileBlock(b, 1_000_000))
}

func BenchmarkFileSampleBatch(b *testing.B) {
	runBatch(b, benchFileBlock(b, 1_000_000))
}

// Accumulation-layer pairs: the same draws folded per value vs per chunk
// into the Algorithm-1 accumulator state.
func BenchmarkMomentsAddScalar(b *testing.B) {
	xs := benchData(benchDraws)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m stats.Moments
		for _, x := range xs {
			m.Add(x)
		}
	}
}

func BenchmarkMomentsAddSlice(b *testing.B) {
	xs := benchData(benchDraws)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m stats.Moments
		m.AddSlice(xs)
	}
}

func benchMmapBlock(b *testing.B, n int) *MmapBlock {
	b.Helper()
	if !MmapSupported() {
		b.Skip("mmap not supported on this platform")
	}
	path := filepath.Join(b.TempDir(), "bench")
	if err := WriteFile(path, benchData(n)); err != nil {
		b.Fatal(err)
	}
	mb, err := OpenMmap(0, path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { mb.Close() })
	return mb
}

func BenchmarkMmapSampleScalar(b *testing.B) {
	runScalar(b, benchMmapBlock(b, 1_000_000))
}

func BenchmarkMmapSampleBatch(b *testing.B) {
	runBatch(b, benchMmapBlock(b, 1_000_000))
}

// Filtered pairs: the post-gather closure oracle (gather a chunk, reject
// through func(float64) bool) against the fused interval kernel (compare
// and select inside the gather loop). benchData values cycle over
// [0.25, 999.25], so [lo, hi] = [900, 1000] keeps ~10% — the selective
// regime the zone-map/fused-kernel work targets.
const benchFilterLo, benchFilterHi = 900, 1000

func runFilteredPostGather(b *testing.B, blk Block) {
	b.Helper()
	r := stats.NewRNG(1)
	pred := func(v float64) bool { return v >= benchFilterLo && v <= benchFilterHi }
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := sampleFilteredChunks(blk, r, benchDraws, pred, func(vs []float64) error {
			for _, v := range vs {
				sink += v
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerSample(b)
	_ = sink
}

func runFilteredFused(b *testing.B, blk Block) {
	b.Helper()
	r := stats.NewRNG(1)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := SampleFilteredIntervalChunks(blk, r, benchDraws, benchFilterLo, benchFilterHi, func(vs []float64) error {
			for _, v := range vs {
				sink += v
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerSample(b)
	_ = sink
}

func BenchmarkMemFilteredSamplePostGather(b *testing.B) {
	runFilteredPostGather(b, NewMemBlock(0, benchData(1_000_000)))
}

func BenchmarkMemFilteredSampleFused(b *testing.B) {
	runFilteredFused(b, NewMemBlock(0, benchData(1_000_000)))
}

func BenchmarkFileFilteredSamplePostGather(b *testing.B) {
	runFilteredPostGather(b, benchFileBlock(b, 1_000_000))
}

func BenchmarkFileFilteredSampleFused(b *testing.B) {
	runFilteredFused(b, benchFileBlock(b, 1_000_000))
}

func BenchmarkMmapFilteredSamplePostGather(b *testing.B) {
	runFilteredPostGather(b, benchMmapBlock(b, 1_000_000))
}

func BenchmarkMmapFilteredSampleFused(b *testing.B) {
	runFilteredFused(b, benchMmapBlock(b, 1_000_000))
}

// BenchmarkGather is the slice-gather kernel (index fill + gather, no
// accumulate) over a table that fits in L2 and one that does not: the
// larger one is where the loads miss and their overlap is what is measured.
func BenchmarkGather(b *testing.B) {
	for _, tc := range []struct {
		name string
		rows int
	}{{"2MB", 2 << 20 / 8}, {"32MB", 32 << 20 / 8}} {
		b.Run(tc.name, func(b *testing.B) {
			data := benchData(tc.rows)
			r := stats.NewRNG(1)
			dst := make([]float64, ChunkSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sampleIntoSlice(data, r, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/ChunkSize, "ns/sample")
		})
	}
}
