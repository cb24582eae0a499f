package block

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"isla/internal/stats"
)

func rampData(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) * 0.5
	}
	return xs
}

func fileBlock(t *testing.T, data []float64) *FileBlock {
	t.Helper()
	path := filepath.Join(t.TempDir(), "blk")
	if err := WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFile(0, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	return fb
}

// The core contract: SampleInto consumes the same RNG stream and delivers
// the same values in the same order as the scalar oracle's Int63n loop. For
// the slice-backed blocks this pins the gather kernel against it.
// Lengths run from empty through the chunk boundary; both generators must
// end in the same state.
func TestSampleIntoMatchesSample(t *testing.T) {
	data := rampData(10_007) // prime-ish so indices spread oddly
	blocks := map[string]Block{
		"mem":  NewMemBlock(0, data),
		"file": fileBlock(t, data),
	}
	if MmapSupported() {
		_, blocks["mmap"] = mmapPair(t, data)
	}
	lens := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ChunkSize - 1, ChunkSize, ChunkSize + 1,
		2*ChunkSize + 37} // spans several chunks + a remainder
	for name, b := range blocks {
		t.Run(name, func(t *testing.T) {
			for _, m := range lens {
				scalar, batch := stats.NewRNG(11), stats.NewRNG(11)
				var want []float64
				if err := scalarSample(b, scalar, int64(m), func(v float64) { want = append(want, v) }); err != nil {
					t.Fatal(err)
				}
				got := make([]float64, m)
				if err := SampleInto(b, batch, got); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("m=%d: draw %d = %v, want %v", m, i, got[i], want[i])
					}
				}
				if scalar.State() != batch.State() {
					t.Fatalf("m=%d: generator states diverged", m)
				}
			}
		})
	}
}

// A tiny file block forces heavy index duplication and dense coalescing in
// the sorted-run reader.
func TestFileSampleIntoDuplicateIndices(t *testing.T) {
	fb := fileBlock(t, []float64{1, 2, 3, 4})
	const m = 3 * ChunkSize
	var want []float64
	if err := scalarSample(fb, stats.NewRNG(5), m, func(v float64) { want = append(want, v) }); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, m)
	if err := fb.SampleInto(stats.NewRNG(5), got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// A sparse draw over a block larger than the coalescing window exercises
// the gap-limited run splitting.
func TestFileSampleIntoSparse(t *testing.T) {
	fb := fileBlock(t, rampData(400_000)) // 3.2 MB of values
	var want []float64
	if err := scalarSample(fb, stats.NewRNG(21), 64, func(v float64) { want = append(want, v) }); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 64)
	if err := fb.SampleInto(stats.NewRNG(21), got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// The function form is the block's own method, wrapper or not: there is no
// second, adapted sampling path behind it.
func TestSampleIntoFallbackAdapter(t *testing.T) {
	b := struct{ Block }{NewMemBlock(0, rampData(512))}
	var want []float64
	if err := scalarSample(b, stats.NewRNG(7), 1000, func(v float64) { want = append(want, v) }); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 1000)
	if err := SampleInto(b, stats.NewRNG(7), got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSampleChunksChunking(t *testing.T) {
	b := NewMemBlock(0, rampData(100))
	const m = 2*ChunkSize + 123
	var sizes []int
	var total int64
	err := SampleChunks(b, stats.NewRNG(1), m, func(vs []float64) error {
		sizes = append(sizes, len(vs))
		total += int64(len(vs))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != m {
		t.Fatalf("delivered %d values, want %d", total, m)
	}
	if len(sizes) != 3 || sizes[0] != ChunkSize || sizes[1] != ChunkSize || sizes[2] != 123 {
		t.Fatalf("chunk sizes = %v", sizes)
	}
	// Zero and negative draw counts are no-ops, even on an empty block.
	if err := SampleChunks(NewMemBlock(1, nil), stats.NewRNG(1), 0, nil); err != nil {
		t.Fatalf("m=0: %v", err)
	}
	// A positive draw on an empty block surfaces ErrEmptyBlock.
	err = SampleChunks(NewMemBlock(1, nil), stats.NewRNG(1), 5, func([]float64) error { return nil })
	if !errors.Is(err, ErrEmptyBlock) {
		t.Fatalf("err = %v, want ErrEmptyBlock", err)
	}
}

func TestSampleChunksPropagatesSinkError(t *testing.T) {
	errStop := errors.New("stop")
	b := NewMemBlock(0, rampData(100))
	err := SampleChunks(b, stats.NewRNG(1), 10*ChunkSize, func(vs []float64) error { return errStop })
	if !errors.Is(err, errStop) {
		t.Fatalf("err = %v, want errStop", err)
	}
}

func TestStoreClose(t *testing.T) {
	dir := t.TempDir()
	s, err := WritePartitioned(filepath.Join(dir, "col"), rampData(10_000), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Works before close.
	if err := sampleEach(s.Blocks()[0], stats.NewRNG(1), 10, func(float64) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed handles refuse further I/O.
	if err := sampleEach(s.Blocks()[0], stats.NewRNG(1), 10, func(float64) {}); err == nil {
		t.Fatal("sample on closed store succeeded")
	}
	if err := SampleInto(s.Blocks()[1], stats.NewRNG(1), make([]float64, 8)); err == nil {
		t.Fatal("batched sample on closed store succeeded")
	}
	if err := s.Blocks()[2].Scan(func(float64) error { return nil }); err == nil {
		t.Fatal("scan on closed store succeeded")
	}
	// Close is idempotent, including through the store.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Stores over memory blocks close trivially.
	if err := NewStore(NewMemBlock(0, rampData(10))).Close(); err != nil {
		t.Fatal(err)
	}
}
