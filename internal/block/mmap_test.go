package block

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"isla/internal/stats"
)

// mmapPair writes data once and opens it through both file paths.
func mmapPair(t *testing.T, data []float64) (*FileBlock, *MmapBlock) {
	t.Helper()
	if !MmapSupported() {
		t.Skip("mmap not supported on this platform")
	}
	path := filepath.Join(t.TempDir(), "blk")
	if err := WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFile(0, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fb.Close() })
	mb, err := OpenMmap(0, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mb.Close() })
	return fb, mb
}

// The zero-copy contract: mmap servicing returns bit-identical values from
// the identical RNG stream as the pread path and the scalar oracle, for
// scans and samples alike.
func TestMmapMatchesPread(t *testing.T) {
	fb, mb := mmapPair(t, rampData(10_007))
	if fb.Len() != mb.Len() {
		t.Fatalf("len %d vs %d", fb.Len(), mb.Len())
	}
	sameValues(t, scanAll(t, mb), scanAll(t, fb))

	const m = 2*ChunkSize + 41
	var want []float64
	if err := scalarSample(fb, stats.NewRNG(13), m, func(v float64) { want = append(want, v) }); err != nil {
		t.Fatal(err)
	}
	var got []float64
	if err := sampleEach(fb, stats.NewRNG(13), m, func(v float64) { got = append(got, v) }); err != nil {
		t.Fatal(err)
	}
	sameValues(t, got, want)
	got = nil
	if err := sampleEach(mb, stats.NewRNG(13), m, func(v float64) { got = append(got, v) }); err != nil {
		t.Fatal(err)
	}
	sameValues(t, got, want)

	batched := make([]float64, m)
	if err := mb.SampleInto(stats.NewRNG(13), batched); err != nil {
		t.Fatal(err)
	}
	sameValues(t, batched, want)

	fs, fok := fb.Summary()
	ms, mok := mb.Summary()
	if !fok || !mok || fs != ms {
		t.Fatalf("summaries diverge: %+v/%v vs %+v/%v", fs, fok, ms, mok)
	}
}

// The RNG must advance identically through Sample and SampleInto so scalar
// and batched consumers stay interchangeable mid-stream.
func TestMmapRNGStream(t *testing.T) {
	_, mb := mmapPair(t, rampData(997))
	r1 := stats.NewRNG(5)
	if err := sampleEach(mb, r1, 1000, func(float64) {}); err != nil {
		t.Fatal(err)
	}
	r2 := stats.NewRNG(5)
	if err := mb.SampleInto(r2, make([]float64, 1000)); err != nil {
		t.Fatal(err)
	}
	if r1.State() != r2.State() {
		t.Fatalf("RNG state diverged: %+v vs %+v", r1.State(), r2.State())
	}
}

func TestMmapEmptyBlock(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap not supported on this platform")
	}
	path := filepath.Join(t.TempDir(), "empty")
	if err := WriteFile(path, nil); err != nil {
		t.Fatal(err)
	}
	mb, err := OpenMmap(0, path)
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Close()
	if mb.Len() != 0 {
		t.Fatalf("len = %d", mb.Len())
	}
	if err := sampleEach(mb, stats.NewRNG(1), 0, func(float64) {}); err != nil {
		t.Fatal(err)
	}
	if err := sampleEach(mb, stats.NewRNG(1), 1, func(float64) {}); !errors.Is(err, ErrEmptyBlock) {
		t.Fatalf("err = %v, want ErrEmptyBlock", err)
	}
	sum, ok := mb.Summary()
	if !ok || sum.Count != 0 {
		t.Fatalf("empty summary = %+v/%v", sum, ok)
	}
}

// Operations on a closed mapping must fail cleanly, never fault.
func TestMmapClosed(t *testing.T) {
	_, mb := mmapPair(t, rampData(64))
	if err := mb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mb.Scan(func(float64) error { return nil }); err == nil {
		t.Fatal("scan on closed mapping succeeded")
	}
	if err := sampleEach(mb, stats.NewRNG(1), 4, func(float64) {}); err == nil {
		t.Fatal("sample on closed mapping succeeded")
	}
	if err := mb.SampleInto(stats.NewRNG(1), make([]float64, 4)); err == nil {
		t.Fatal("batched sample on closed mapping succeeded")
	}
}

// ModeAuto must pick the mapping wherever it is supported, and everything
// Open returns must satisfy the batched capability.
func TestOpenModeSelection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blk")
	if err := WriteFile(path, rampData(128)); err != nil {
		t.Fatal(err)
	}
	b, err := Open(3, path, ModeAuto)
	if err != nil {
		t.Fatal(err)
	}
	if MmapSupported() {
		if _, ok := b.(*MmapBlock); !ok {
			t.Fatalf("ModeAuto returned %T, want *MmapBlock", b)
		}
	} else {
		if _, ok := b.(*FileBlock); !ok {
			t.Fatalf("ModeAuto returned %T, want *FileBlock", b)
		}
	}
	if b.ID() != 3 {
		t.Fatalf("id = %d", b.ID())
	}
	p, err := Open(0, path, ModePread)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(*FileBlock); !ok {
		t.Fatalf("ModePread returned %T", p)
	}
}

func TestParseOpenMode(t *testing.T) {
	for in, want := range map[string]OpenMode{
		"auto": ModeAuto, "": ModeAuto, "mmap": ModeMmap, "pread": ModePread,
	} {
		got, err := ParseOpenMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseOpenMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseOpenMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if ModeMmap.String() != "mmap" || ModePread.String() != "pread" || ModeAuto.String() != "auto" {
		t.Fatal("OpenMode.String spelling changed")
	}
}

// Store.Summary over mixed block kinds.
func TestStoreSummary(t *testing.T) {
	dir := t.TempDir()
	data := rampData(1_000)
	s, err := WritePartitioned(filepath.Join(dir, "col"), data, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sum, ok := s.Summary()
	if !ok {
		t.Fatal("fully summarized store reports no summary")
	}
	if want := ComputeSummary(data); sum != want {
		t.Fatalf("store summary %+v, want %+v", sum, want)
	}

	// Mem stores: no summaries.
	mem := NewStore(NewMemBlock(0, data))
	if _, ok := mem.Summary(); ok {
		t.Fatal("mem store reports a summary")
	}
	// A mixed store with one summary-less non-empty block: no store summary.
	mixed := NewStore(s.Blocks()[0], NewMemBlock(1, data))
	if _, ok := mixed.Summary(); ok {
		t.Fatal("mixed store reports a full summary")
	}
	// Trailing empty mem blocks do not spoil an otherwise-summarized store.
	withEmpty := NewStore(s.Blocks()[0], NewMemBlock(1, nil))
	if _, ok := withEmpty.Summary(); !ok {
		t.Fatal("empty mem block spoiled the store summary")
	}

	// ExactMean answers from the summary without touching data.
	mean, err := s.ExactMean()
	if err != nil {
		t.Fatal(err)
	}
	if want := sum.Sum / float64(sum.Count); math.Float64bits(mean) != math.Float64bits(want) {
		t.Fatalf("summary mean %v, want %v", mean, want)
	}
}

// Closing a mapping while operations are in flight must never fault: the
// last in-flight operation performs the munmap, later calls fail cleanly.
func TestMmapCloseDuringOperations(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap not supported on this platform")
	}
	path := filepath.Join(t.TempDir(), "blk")
	if err := WriteFile(path, rampData(100_000)); err != nil {
		t.Fatal(err)
	}
	mb, err := OpenMmap(0, path)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(seed uint64) {
			defer func() { done <- struct{}{} }()
			r := stats.NewRNG(seed)
			dst := make([]float64, 4096)
			<-start
			for i := 0; ; i++ {
				var err error
				if i%2 == 0 {
					err = mb.SampleInto(r, dst)
				} else {
					err = mb.Scan(func(float64) error { return nil })
				}
				if err != nil {
					return // closed: every later call must keep failing
				}
			}
		}(uint64(g))
	}
	close(start)
	if err := mb.Close(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if err := mb.SampleInto(stats.NewRNG(1), make([]float64, 8)); err == nil {
		t.Fatal("operation succeeded after close drained")
	}
	if err := mb.Close(); err != nil {
		t.Fatalf("re-close = %v, want nil", err)
	}
}
