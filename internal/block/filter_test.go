package block

import (
	"io"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"isla/internal/stats"
)

// TestFilterChunk: the interval compaction of a block without the fused
// kernel keeps exactly the in-range draws, in draw order — checked on a
// five-value block where every raw draw is known — and NaN passes no bounds.
func TestFilterChunk(t *testing.T) {
	b := noFused{NewMemBlock(0, []float64{1, -2, 3, -4, math.NaN()})}
	var raw, kept []float64
	if err := sampleEach(b, stats.NewRNG(5), 200, func(v float64) { raw = append(raw, v) }); err != nil {
		t.Fatal(err)
	}
	n, err := SampleFilteredIntervalChunks(b, stats.NewRNG(5), 200, 0, math.Inf(1), func(vs []float64) error {
		kept = append(kept, vs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := filterChunk(raw, func(v float64) bool { return v > 0 })
	if n != int64(len(want)) || !slices.Equal(kept, want) || len(want) == 0 || len(want) == 200 {
		t.Fatalf("kept %d values %v, want %d %v", n, kept, len(want), want)
	}
	if got := filterChunk(nil, func(float64) bool { return true }); len(got) != 0 {
		t.Fatalf("nil chunk kept %v", got)
	}
}

// TestSampleFilteredChunksRNGStream: the filtered path must consume
// exactly the RNG stream of the unfiltered path with the same raw draw
// count, and deliver the subset of its values inside the interval.
func TestSampleFilteredChunksRNGStream(t *testing.T) {
	data := make([]float64, 10_000)
	for i := range data {
		data[i] = float64(i % 100)
	}
	b := NewMemBlock(0, data)
	pred := func(v float64) bool { return v >= 50 }
	const m = 40_000 // > ChunkSize, so several chunks

	var raw []float64
	r1 := stats.NewRNG(7)
	if err := SampleChunks(b, r1, m, func(vs []float64) error {
		raw = append(raw, vs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var got []float64
	r2 := stats.NewRNG(7)
	accepted, err := SampleFilteredIntervalChunks(b, r2, m, 50, math.Inf(1), func(vs []float64) error {
		got = append(got, vs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("filtered and unfiltered paths left the RNG in different states")
	}

	var want []float64
	for _, v := range raw {
		if pred(v) {
			want = append(want, v)
		}
	}
	if accepted != int64(len(want)) || len(got) != len(want) {
		t.Fatalf("accepted = %d (%d values), want %d", accepted, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if accepted == 0 || accepted == m {
		t.Fatalf("degenerate acceptance %d of %d", accepted, m)
	}
}

// TestSampleFilteredIntervalBitIdentical: the fused kernel must accept
// exactly the value stream of the post-gather closure oracle — same raw
// draws, same accepted values in order, same RNG state afterwards — on
// every storage layout, including the generic fallback for blocks without
// the capability.
func TestSampleFilteredIntervalBitIdentical(t *testing.T) {
	data := make([]float64, 50_000)
	for i := range data {
		data[i] = float64(i%1000) / 10
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "col.000")
	if err := WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	pread, err := Open(1, path, ModePread)
	if err != nil {
		t.Fatal(err)
	}
	defer pread.(io.Closer).Close()

	mem := NewMemBlock(0, data)
	blocks := map[string]Block{
		"mem":      mem,
		"pread":    pread,
		"fallback": noFused{mem},
	}
	if MmapSupported() {
		mm, err := Open(2, path, ModeMmap)
		if err != nil {
			t.Fatal(err)
		}
		defer mm.(io.Closer).Close()
		blocks["mmap"] = mm
	}

	const m = 40_000 // several chunks
	for _, iv := range []struct{ lo, hi float64 }{
		{25, 75}, {0, 99.9}, {90, 95}, {1e9, 2e9}, {99.9, 99.9},
	} {
		pred := func(v float64) bool { return iv.lo <= v && v <= iv.hi }
		for name, blk := range blocks {
			r1, r2 := stats.NewRNG(11), stats.NewRNG(11)
			var post, fused []float64
			accPost, err := sampleFilteredChunks(blk, r1, m, pred, func(vs []float64) error {
				post = append(post, vs...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			accFused, err := SampleFilteredIntervalChunks(blk, r2, m, iv.lo, iv.hi, func(vs []float64) error {
				fused = append(fused, vs...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if accPost != accFused || len(post) != len(fused) {
				t.Fatalf("%s [%g,%g]: accepted %d (fused) vs %d (post-gather)",
					name, iv.lo, iv.hi, accFused, accPost)
			}
			for i := range post {
				if post[i] != fused[i] {
					t.Fatalf("%s [%g,%g]: value %d differs: %v vs %v",
						name, iv.lo, iv.hi, i, fused[i], post[i])
				}
			}
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("%s [%g,%g]: RNG states diverged", name, iv.lo, iv.hi)
			}
		}
	}
}

func TestSampleFilteredIntervalEmptyBlock(t *testing.T) {
	b := NewMemBlock(0, nil)
	if _, err := b.SampleFilteredInterval(stats.NewRNG(1), 5, 0, 1, nil); err != ErrEmptyBlock {
		t.Fatalf("err = %v, want ErrEmptyBlock", err)
	}
	if n, err := b.SampleFilteredInterval(stats.NewRNG(1), 0, 0, 1, nil); n != 0 || err != nil {
		t.Fatalf("zero draws: n=%d err=%v", n, err)
	}
}

func TestSummaryClassify(t *testing.T) {
	nan := math.NaN()
	sum := ComputeSummary([]float64{10, 20, 30})
	cases := []struct {
		name   string
		s      Summary
		lo, hi float64
		want   SummaryClass
	}{
		{"contained", sum, 5, 35, SummaryContained},
		{"contained exact bounds", sum, 10, 30, SummaryContained},
		{"disjoint above", sum, 31, 100, SummaryDisjoint},
		{"disjoint below", sum, -100, 9, SummaryDisjoint},
		{"overlap straddling", sum, 15, 100, SummaryOverlap},
		{"overlap inside", sum, 15, 25, SummaryOverlap},
		{"empty summary", Summary{}, 0, 1, SummaryDisjoint},
		// A NaN in the data poisons Sum: the envelope may still prove
		// disjointness (NaN matches nothing), but never containment.
		{"nan poisons containment", ComputeSummary([]float64{10, nan, 30}), 5, 35, SummaryOverlap},
		{"nan still disjoint", ComputeSummary([]float64{10, nan, 30}), 100, 200, SummaryDisjoint},
		// All-NaN envelope proves nothing.
		{"nan envelope", ComputeSummary([]float64{nan, nan}), 0, 1, SummaryOverlap},
	}
	for _, c := range cases {
		if got := c.s.Classify(c.lo, c.hi); got != c.want {
			t.Errorf("%s: Classify(%g, %g) = %v, want %v", c.name, c.lo, c.hi, got, c.want)
		}
	}
}

// TestGoldenV2Classification is the pruning guard: the summary footer of
// the committed v2 fixture must classify correctly in both open modes. If
// a format change ever stops footers from being read (summOK false), the
// classification falls back to overlap and this test fails — a footer
// regression cannot silently disable zone-map pruning.
func TestGoldenV2Classification(t *testing.T) {
	// fixtureValues envelope: Min -17, Max 1e6, finite Sum.
	modes := []OpenMode{ModePread}
	if MmapSupported() {
		modes = append(modes, ModeMmap)
	}
	for _, mode := range modes {
		b, err := Open(0, "testdata/v2-golden.islb", mode)
		if err != nil {
			t.Fatalf("mode=%v: %v", mode, err)
		}
		sum, ok := BlockSummary(b)
		if !ok {
			t.Fatalf("mode=%v: v2 fixture carries no summary — footer parsing regressed, pruning is disabled", mode)
		}
		if sum.Count != b.Len() {
			t.Fatalf("mode=%v: footer count %d != block length %d", mode, sum.Count, b.Len())
		}
		for _, c := range []struct {
			lo, hi float64
			want   SummaryClass
		}{
			{2e6, math.Inf(1), SummaryDisjoint},
			{math.Inf(-1), -20, SummaryDisjoint},
			{-17, 1e6, SummaryContained},
			{math.Inf(-1), math.Inf(1), SummaryContained},
			{0, 10, SummaryOverlap},
			{-17, 10, SummaryOverlap},
		} {
			if got := sum.Classify(c.lo, c.hi); got != c.want {
				t.Errorf("mode=%v: Classify(%g, %g) = %v, want %v", mode, c.lo, c.hi, got, c.want)
			}
		}
		if err := b.(io.Closer).Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuotas(t *testing.T) {
	s := NewStore(NewMemBlock(0, make([]float64, 30)), NewMemBlock(1, nil),
		NewMemBlock(2, make([]float64, 70)), NewMemBlock(3, nil))
	q := s.Quotas(100)
	if len(q) != 4 || q[1] != 0 || q[3] != 0 {
		t.Fatalf("quotas = %v", q)
	}
	if q[0]+q[2] != 100 {
		t.Fatalf("quotas %v do not sum to 100", q)
	}
	if q[0] != 30 { // proportional share; slack goes to the last non-empty block
		t.Fatalf("quotas = %v", q)
	}
	if got := s.Quotas(0); got != nil {
		t.Fatalf("Quotas(0) = %v", got)
	}
	if got := NewStore().Quotas(5); got != nil {
		t.Fatalf("empty-store quotas = %v", got)
	}
}
