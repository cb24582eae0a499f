package block

import (
	"io"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"isla/internal/stats"
)

// TestFilterChunk: the interval select keeps exactly the in-range draws, in
// draw order — checked on a five-value block where every raw draw is known —
// and NaN passes no bounds.
func TestFilterChunk(t *testing.T) {
	b := NewMemBlock(0, []float64{1, -2, 3, -4, math.NaN()})
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

// blockKinds holds data as every block kind: in memory, a bare wrapper
// around that block, and a file opened pread and, where supported, mmap.
func blockKinds(t *testing.T, data []float64) map[string]Block {
	t.Helper()
	path := filepath.Join(t.TempDir(), "col")
	if err := WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	mem := NewMemBlock(0, data)
	blocks := map[string]Block{"mem": mem, "wrapped": struct{ Block }{mem}}
	modes := map[string]OpenMode{"pread": ModePread}
	if MmapSupported() {
		modes["mmap"] = ModeMmap
	}
	for name, mode := range modes {
		blk, err := Open(1, path, mode)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { blk.(io.Closer).Close() })
		blocks[name] = blk
	}
	return blocks
}

// TestSampleFilteredIntervalBitIdentical: SampleFilteredIntervalChunks must
// accept exactly the value stream of the post-gather closure oracle — the
// same accepted count, the same values bit for bit in the same order, the
// same RNG state afterwards — on every block kind, at chunk boundaries, over
// data holding NaN, ±Inf and -0, for empty, degenerate and infinite
// intervals.
func TestSampleFilteredIntervalBitIdentical(t *testing.T) {
	inf := math.Inf(1)
	data := make([]float64, 50_000)
	for i := range data {
		data[i] = float64(i%1000) / 10
	}
	for i := 0; i < len(data); i += 97 {
		data[i] = math.NaN()
		data[i+13] = inf
		data[i+29] = -inf
		data[i+41] = math.Copysign(0, -1)
	}
	blocks := blockKinds(t, data)

	// Ordinary intervals; lo = hi ({0, 0} keeps 0 and -0); lo > hi, which
	// keeps nothing; infinite bounds ({-inf, inf} keeps all but NaN); a NaN
	// bound, which keeps nothing.
	intervals := []struct{ lo, hi float64 }{
		{25, 75}, {0, 99.9}, {90, 95}, {1e9, 2e9},
		{99.9, 99.9}, {0, 0}, {inf, inf}, {-inf, -inf},
		{75, 25},
		{-inf, 50}, {50, inf}, {-inf, inf},
		{math.NaN(), inf},
	}
	for _, m := range []int64{0, 1, ChunkSize - 1, ChunkSize, ChunkSize + 1, 3*ChunkSize + 7} {
		for _, iv := range intervals {
			pred := func(v float64) bool { return iv.lo <= v && v <= iv.hi }
			for name, blk := range blocks {
				r1, r2 := stats.NewRNG(11), stats.NewRNG(11)
				var want, got []float64
				accWant, err := sampleFilteredChunks(blk, r1, m, pred, func(vs []float64) error {
					want = append(want, vs...)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				accGot, err := SampleFilteredIntervalChunks(blk, r2, m, iv.lo, iv.hi, func(vs []float64) error {
					if len(vs) == 0 {
						t.Errorf("%s m=%d [%g,%g]: an empty chunk was delivered", name, m, iv.lo, iv.hi)
					}
					got = append(got, vs...)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if accGot != accWant || int64(len(got)) != accGot || len(got) != len(want) {
					t.Fatalf("%s m=%d [%g,%g]: accepted %d (%d values), oracle %d",
						name, m, iv.lo, iv.hi, accGot, len(got), accWant)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s m=%d [%g,%g]: value %d is %v, oracle %v",
							name, m, iv.lo, iv.hi, i, got[i], want[i])
					}
				}
				if r1.State() != r2.State() {
					t.Fatalf("%s m=%d [%g,%g]: RNG states diverged", name, m, iv.lo, iv.hi)
				}
			}
		}
	}
}

// An empty block answers zero draws with nothing and any draw with
// ErrEmptyBlock, whatever its kind.
func TestSampleFilteredIntervalEmptyBlock(t *testing.T) {
	for name, b := range blockKinds(t, nil) {
		if n, err := SampleFilteredIntervalChunks(b, stats.NewRNG(1), 5, 0, 1, nil); n != 0 || err != ErrEmptyBlock {
			t.Errorf("%s: five draws: n=%d err=%v, want 0, ErrEmptyBlock", name, n, err)
		}
		if n, err := SampleFilteredIntervalChunks(b, stats.NewRNG(1), 0, 0, 1, nil); n != 0 || err != nil {
			t.Errorf("%s: zero draws: n=%d err=%v", name, n, err)
		}
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
	// m·len_i passes 2⁶³ on billion-row blocks; the quotas must not wrap.
	for _, c := range []struct {
		lens []int64
		m    int64
		want []int64
	}{
		{[]int64{2.5e9, 2.5e9}, 5e9, []int64{2.5e9, 2.5e9}},
		{[]int64{3e9, 1e9, 1e9}, 4e9, []int64{2.4e9, 0.8e9, 0.8e9}},
	} {
		if got := QuotasFor(c.lens, c.m); !slices.Equal(got, c.want) {
			t.Fatalf("QuotasFor(%v, %d) = %v, want %v", c.lens, c.m, got, c.want)
		}
	}
}
