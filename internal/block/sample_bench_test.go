package block

import (
	"io"
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

// benchOpen writes benchData(n) to a file and opens it in mode, skipping
// the benchmark where mmap is unsupported.
func benchOpen(b *testing.B, n int, mode OpenMode) Block {
	b.Helper()
	if mode == ModeMmap && !MmapSupported() {
		b.Skip("mmap not supported on this platform")
	}
	path := filepath.Join(b.TempDir(), "bench")
	if err := WriteFile(path, benchData(n)); err != nil {
		b.Fatal(err)
	}
	blk, err := Open(0, path, mode)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { blk.(io.Closer).Close() })
	return blk
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
	runScalar(b, benchOpen(b, 1_000_000, ModePread))
}

func BenchmarkFileSampleBatch(b *testing.B) {
	runBatch(b, benchOpen(b, 1_000_000, ModePread))
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

func BenchmarkMmapSampleScalar(b *testing.B) {
	runScalar(b, benchOpen(b, 1_000_000, ModeMmap))
}

func BenchmarkMmapSampleBatch(b *testing.B) {
	runBatch(b, benchOpen(b, 1_000_000, ModeMmap))
}

// BenchmarkFilteredSample is SampleFilteredIntervalChunks on every storage
// layout, its ns/sample counting raw draws: mem and mmap over a table that
// fits in L2 and one that does not (BenchmarkGather's split), where the
// random loads miss and their overlap is what is measured, and pread at one
// size, each at three selectivities. benchData values cycle over
// [0.25, 999.25], so [lo, 1000] keeps (1000-lo)/1000 of the draws.
func BenchmarkFilteredSample(b *testing.B) {
	sels := []struct {
		name string
		lo   float64
	}{{"sel=1%", 990}, {"sel=10%", 900}, {"sel=55%", 450}}
	type row struct {
		name string
		blk  Block
	}
	var rows []row
	for _, size := range []struct {
		name string
		rows int
	}{{"2MB", 2 << 20 / 8}, {"32MB", 32 << 20 / 8}} {
		rows = append(rows, row{"mem/" + size.name, NewMemBlock(0, benchData(size.rows))})
		if MmapSupported() {
			rows = append(rows, row{"mmap/" + size.name, benchOpen(b, size.rows, ModeMmap)})
		}
	}
	rows = append(rows, row{"pread/2MB", benchOpen(b, 2<<20/8, ModePread)})
	for _, rw := range rows {
		for _, sel := range sels {
			b.Run(rw.name+"/"+sel.name, func(b *testing.B) {
				r := stats.NewRNG(1)
				var sink float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, err := SampleFilteredIntervalChunks(rw.blk, r, benchDraws, sel.lo, 1000, func(vs []float64) error {
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
			})
		}
	}
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
