package block

import (
	"errors"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"isla/internal/stats"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

func TestMemBlockScan(t *testing.T) {
	b := NewMemBlock(3, []float64{1, 2, 3})
	if b.ID() != 3 || b.Len() != 3 {
		t.Fatalf("id/len = %d/%d", b.ID(), b.Len())
	}
	var got []float64
	if err := b.Scan(func(v float64) error { got = append(got, v); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("scan got %v", got)
	}
}

func TestMemBlockScanStopsOnError(t *testing.T) {
	b := NewMemBlock(0, seq(100))
	sentinel := errors.New("stop")
	n := 0
	err := b.Scan(func(v float64) error {
		n++
		if n == 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n != 5 {
		t.Fatalf("scanned %d values after error, want 5", n)
	}
}

func TestMemBlockSampleCountAndRange(t *testing.T) {
	b := NewMemBlock(0, seq(50))
	r := stats.NewRNG(1)
	count := 0
	err := sampleEach(b, r, 1000, func(v float64) {
		count++
		if v < 0 || v > 49 {
			t.Fatalf("sampled value %v outside block", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 1000 {
		t.Fatalf("got %d samples, want 1000", count)
	}
}

func TestMemBlockSampleEmpty(t *testing.T) {
	b := NewMemBlock(0, nil)
	if err := sampleEach(b, stats.NewRNG(1), 0, func(float64) {}); err != nil {
		t.Fatalf("zero samples from empty block: %v", err)
	}
	if err := sampleEach(b, stats.NewRNG(1), 1, func(float64) {}); !errors.Is(err, ErrEmptyBlock) {
		t.Fatalf("err = %v, want ErrEmptyBlock", err)
	}
}

func TestMemBlockSampleUniform(t *testing.T) {
	// Chi-square-ish check that sampling visits all positions roughly evenly.
	const n, m = 10, 100000
	b := NewMemBlock(0, seq(n))
	counts := make([]int, n)
	err := sampleEach(b, stats.NewRNG(9), m, func(v float64) { counts[int(v)]++ })
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if math.Abs(float64(c)-m/n) > 0.05*m/n {
			t.Errorf("position %d sampled %d times, want ~%d", i, c, m/n)
		}
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore(NewMemBlock(0, seq(10)), NewMemBlock(1, seq(6)))
	if s.NumBlocks() != 2 || s.TotalLen() != 16 {
		t.Fatalf("blocks/total = %d/%d", s.NumBlocks(), s.TotalLen())
	}
	if s.Block(1).Len() != 6 {
		t.Fatal("Block(1) wrong")
	}
	n := 0
	if err := s.Scan(func(float64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 16 {
		t.Fatalf("scanned %d, want 16", n)
	}
}

func TestStoreExactMeanSum(t *testing.T) {
	s := NewStore(NewMemBlock(0, []float64{1, 2, 3}), NewMemBlock(1, []float64{4, 5}))
	mean, err := s.ExactMean()
	if err != nil {
		t.Fatal(err)
	}
	if mean != 3 {
		t.Fatalf("mean = %v, want 3", mean)
	}
	sum, err := s.ExactSum()
	if err != nil {
		t.Fatal(err)
	}
	if sum != 15 {
		t.Fatalf("sum = %v, want 15", sum)
	}
	empty := NewStore()
	if _, err := empty.ExactMean(); !errors.Is(err, ErrEmptyBlock) {
		t.Fatalf("empty mean err = %v", err)
	}
	if _, err := empty.ExactSum(); !errors.Is(err, ErrEmptyBlock) {
		t.Fatalf("empty sum err = %v", err)
	}
}

// TestStoreExactMeanRefusesQuarantined: a store without summaries answers
// ExactMean by scanning, and that scan refuses a quarantined block the way
// Scan does — it never averages the damaged bytes into the answer. Clearing
// the quarantine restores the healthy answer to the last bit.
func TestStoreExactMeanRefusesQuarantined(t *testing.T) {
	data := make([]float64, 4000)
	for i := range data {
		data[i] = float64(i % 100)
	}
	s := Partition(data, 4)
	healthy, err := s.ExactMean()
	if err != nil {
		t.Fatal(err)
	}
	s.Quarantine(1)
	var ce *CorruptBlockError
	if mean, err := s.ExactMean(); !errors.As(err, &ce) {
		t.Fatalf("ExactMean over a quarantined block = %v, %v; want *CorruptBlockError", mean, err)
	}
	if _, err := s.ExactSum(); !errors.As(err, &ce) {
		t.Fatalf("ExactSum over a quarantined block: err = %v, want *CorruptBlockError", err)
	}
	s.ClearQuarantine()
	if mean, err := s.ExactMean(); err != nil || math.Float64bits(mean) != math.Float64bits(healthy) {
		t.Fatalf("after ClearQuarantine: %v, %v; want %v", mean, err, healthy)
	}
}

// TestStoreView: a view over a range of a store's blocks reports only its
// own blocks, shares the store's quarantine set both ways, quarantines and
// clears only its own blocks, and closes nothing.
func TestStoreView(t *testing.T) {
	s := Partition(seq(600), 6) // 100 rows a block
	v := s.View(2, 4)
	if v.NumBlocks() != 2 || v.TotalLen() != 200 || v.Block(0).ID() != 2 {
		t.Fatalf("view: %d blocks, %d rows, first id %d", v.NumBlocks(), v.TotalLen(), v.Block(0).ID())
	}
	s.Quarantine(3, 5)
	if ids := v.QuarantinedIDs(); !slices.Equal(ids, []int{3}) || v.CoveredLen() != 100 {
		t.Fatalf("view sees %v quarantined, %d rows covered; want [3], 100", ids, v.CoveredLen())
	}
	if q := v.Quotas(10); !slices.Equal(q, []int64{10, 0}) {
		t.Fatalf("view quotas = %v, want [10 0]", q)
	}
	v.Quarantine(0, 2) // block 0 is not the view's
	if ids := s.QuarantinedIDs(); !slices.Equal(ids, []int{2, 3, 5}) {
		t.Fatalf("store sees %v quarantined, want [2 3 5]", ids)
	}
	v.ClearQuarantine()
	if ids := s.QuarantinedIDs(); !slices.Equal(ids, []int{5}) {
		t.Fatalf("after the view's ClearQuarantine the store sees %v, want [5]", ids)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreViewSharedQuarantineConcurrent: views of one store quarantine and
// clear their blocks while the store and the other views read the shared
// set — the race detector's view of a scrub running beside queries.
func TestStoreViewSharedQuarantineConcurrent(t *testing.T) {
	s := Partition(seq(800), 8)
	views := []*Store{s.View(0, 4), s.View(4, 8)}
	var wg sync.WaitGroup
	for i, v := range views {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for range 200 {
				v.Quarantine(4*i + 1)
				v.ClearQuarantine()
			}
		}()
		go func() {
			defer wg.Done()
			for range 200 {
				if q := v.Quotas(40); q == nil {
					t.Error("a view with one block down at most lost its whole quota")
					return
				}
				s.QuarantinedIDs()
			}
		}()
	}
	wg.Wait()
	if ids := s.QuarantinedIDs(); ids != nil {
		t.Fatalf("after every view cleared its blocks the store sees %v", ids)
	}
}

func TestPartitionCoversAllData(t *testing.T) {
	f := func(seed uint64, bRaw uint8) bool {
		n := 100 + int(seed%1000)
		b := 1 + int(bRaw)%20
		data := seq(n)
		s := Partition(data, b)
		if s.NumBlocks() != b || s.TotalLen() != int64(n) {
			return false
		}
		// Concatenated scan must reproduce the original data exactly.
		i := 0
		ok := true
		s.Scan(func(v float64) error {
			if v != data[i] {
				ok = false
			}
			i++
			return nil
		})
		return ok && i == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPartitionNearEqualSizes(t *testing.T) {
	s := Partition(seq(103), 10)
	for _, b := range s.Blocks() {
		if b.Len() < 10 || b.Len() > 11 {
			t.Fatalf("block %d has %d values, want 10 or 11", b.ID(), b.Len())
		}
	}
}

func TestPartitionPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Partition(_, 0) did not panic")
		}
	}()
	Partition(seq(5), 0)
}

func TestPilotSampleProportional(t *testing.T) {
	// Block 0 has 90% of data; roughly 90% of pilot samples must come from it.
	big := make([]float64, 9000)
	for i := range big {
		big[i] = 1
	}
	small := make([]float64, 1000) // zeros
	s := NewStore(NewMemBlock(0, big), NewMemBlock(1, small))
	ones := 0
	total := 0
	err := s.PilotSampleChunks(stats.NewRNG(2), 10000, eachValue(func(v float64) {
		total++
		if v == 1 {
			ones++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if total != 10000 {
		t.Fatalf("pilot drew %d, want 10000", total)
	}
	if ones < 8800 || ones > 9200 {
		t.Fatalf("pilot drew %d from big block, want ~9000", ones)
	}
}

func TestPilotSampleErrors(t *testing.T) {
	s := NewStore(NewMemBlock(0, seq(5)))
	if err := s.PilotSampleChunks(stats.NewRNG(1), 0, nil); err == nil {
		t.Error("zero pilot size accepted")
	}
	if err := NewStore().PilotSampleChunks(stats.NewRNG(1), 5, nil); !errors.Is(err, ErrEmptyBlock) {
		t.Errorf("empty store err = %v", err)
	}
}

func TestFileBlockRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.islb")
	data := []float64{1.5, -2.25, 0, math.Pi, 1e300}
	if err := WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFile(7, path)
	if err != nil {
		t.Fatal(err)
	}
	if fb.ID() != 7 || fb.Len() != int64(len(data)) || fb.Path() != path {
		t.Fatalf("fb = %+v", fb)
	}
	var got []float64
	if err := fb.Scan(func(v float64) error { got = append(got, v); return nil }); err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if got[i] != v {
			t.Fatalf("value %d = %v, want %v", i, got[i], v)
		}
	}
}

func TestFileBlockSample(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.islb")
	if err := WriteFile(path, seq(100)); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFile(0, path)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	err = sampleEach(fb, stats.NewRNG(3), 500, func(v float64) {
		count++
		if v < 0 || v > 99 || v != math.Trunc(v) {
			t.Fatalf("bad sampled value %v", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Fatalf("sampled %d, want 500", count)
	}
}

func TestFileBlockSampleEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.islb")
	if err := WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFile(0, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sampleEach(fb, stats.NewRNG(1), 1, func(float64) {}); !errors.Is(err, ErrEmptyBlock) {
		t.Fatalf("err = %v, want ErrEmptyBlock", err)
	}
}

func TestOpenFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.islb")
	if err := WriteFile(path, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic.
	raw := []byte("NOTAMAGIC")
	if err := writeBytesAt(path, 0, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(0, path); err == nil {
		t.Fatal("corrupted magic accepted")
	}
	if _, err := OpenFile(0, filepath.Join(dir, "missing.islb")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestWritePartitionedStore(t *testing.T) {
	dir := t.TempDir()
	data := seq(1000)
	s, err := WritePartitioned(filepath.Join(dir, "part"), data, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumBlocks() != 7 || s.TotalLen() != 1000 {
		t.Fatalf("blocks/total = %d/%d", s.NumBlocks(), s.TotalLen())
	}
	mean, err := s.ExactMean()
	if err != nil {
		t.Fatal(err)
	}
	if mean != 499.5 {
		t.Fatalf("mean = %v, want 499.5", mean)
	}
	if _, err := WritePartitioned(filepath.Join(dir, "bad"), data, 0); err == nil {
		t.Fatal("zero partitions accepted")
	}
}
