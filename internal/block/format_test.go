package block

import (
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// fixtureValues are the values baked into testdata/v{1,2,3}-golden.islb.
// The committed binaries pin the on-disk format: if an encoder change
// breaks compatibility with files written by earlier releases, these tests
// fail.
var fixtureValues = []float64{1.5, -2.25, 0, 3.75, 1e6, -17, 42, 0.125}

// fixtureChecksum is the persisted footer CRC of the v2 fixture: the
// CRC-32C of the summary's v2 footer encoding.
const fixtureChecksum = 0xcd908035

// fixturePayloadChecksum is the payload CRC persisted in the v3 fixture.
const fixturePayloadChecksum = 0x51a07225

func scanAll(t *testing.T, b Block) []float64 {
	t.Helper()
	var got []float64
	if err := b.Scan(func(v float64) error { got = append(got, v); return nil }); err != nil {
		t.Fatal(err)
	}
	return got
}

func sameValues(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// Every open mode must read every committed fixture generation — v1 and v2
// files stay readable forever.
func TestFormatFixtures(t *testing.T) {
	modes := []OpenMode{ModePread}
	if MmapSupported() {
		modes = append(modes, ModeMmap, ModeAuto)
	}
	for _, mode := range modes {
		for _, fix := range []struct {
			path    string
			version uint32
		}{
			{"testdata/v1-golden.islb", FormatV1},
			{"testdata/v2-golden.islb", FormatV2},
			{"testdata/v3-golden.islb", FormatV3},
		} {
			b, err := Open(0, fix.path, mode)
			if err != nil {
				t.Fatalf("%s mode=%v: %v", fix.path, mode, err)
			}
			sameValues(t, scanAll(t, b), fixtureValues)
			sum, ok := BlockSummary(b)
			if fix.version == FormatV1 {
				if ok {
					t.Fatalf("%s: v1 block reports a summary", fix.path)
				}
			} else {
				if !ok {
					t.Fatalf("%s: v%d block reports no summary", fix.path, fix.version)
				}
				if sum != ComputeSummary(fixtureValues) {
					t.Fatalf("%s: summary %+v, want %+v", fix.path, sum, ComputeSummary(fixtureValues))
				}
				ft := encodeFooter(sum)
				if got := crc32.Checksum(ft[:footerSize-4], castagnoli); got != fixtureChecksum {
					t.Fatalf("%s: checksum %#08x, want %#08x — footer encoding changed", fix.path, got, uint32(fixtureChecksum))
				}
			}
			// The Verifier capability: v3 blocks verify their payload, older
			// generations report "nothing to check" without failing.
			if v, okv := b.(Verifier); okv {
				checked, err := v.VerifyPayload()
				if err != nil {
					t.Fatalf("%s mode=%v: VerifyPayload: %v", fix.path, mode, err)
				}
				if want := fix.version == FormatV3; checked != want {
					t.Fatalf("%s mode=%v: checked = %v, want %v", fix.path, mode, checked, want)
				}
			} else if fix.version == FormatV3 {
				t.Fatalf("%s mode=%v: v3 block does not implement Verifier", fix.path, mode)
			}
			if c, okc := b.(interface{ Close() error }); okc {
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// The v3 fixture's payload CRC is pinned: if the payload checksum ever
// changes encoding, files written by earlier releases stop verifying.
func TestFixturePayloadChecksum(t *testing.T) {
	if got := payloadChecksum(fixtureValues); got != fixturePayloadChecksum {
		t.Fatalf("payload checksum %#08x, want %#08x — payload CRC encoding changed", got, uint32(fixturePayloadChecksum))
	}
}

func TestWriteFileV2Summary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.islb")
	data := []float64{3, 1, 4, 1, 5, 9, 2.5, -6}
	if err := WriteFileV2(path, data); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFile(0, path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if fb.Version() != FormatV2 {
		t.Fatalf("version = %d, want 2", fb.Version())
	}
	sum, ok := fb.Summary()
	if !ok {
		t.Fatal("v2 block has no summary")
	}
	// The persisted footer must equal a scan-derived summary bit for bit:
	// both accumulate left to right in storage order.
	var scanned Summary
	if err := fb.Scan(func(v float64) error { scanned.AddAll([]float64{v}); return nil }); err != nil {
		t.Fatal(err)
	}
	if sum != scanned {
		t.Fatalf("footer summary %+v, scan summary %+v", sum, scanned)
	}
	if sum.Count != 8 || sum.Min != -6 || sum.Max != 9 {
		t.Fatalf("summary = %+v", sum)
	}
}

// WriteFile writes the current (v3) format: summary footer, payload CRC,
// and a file size accounting for the 52-byte footer.
func TestWriteFileV3RoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v3.islb")
	data := []float64{3, 1, 4, 1, 5, 9, 2.5, -6}
	if err := WriteFile(path, data); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(headerSize + 8*len(data) + footerSizeV3); st.Size() != want {
		t.Fatalf("v3 size = %d, want %d", st.Size(), want)
	}
	fb, err := OpenFile(0, path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if fb.Version() != FormatV3 {
		t.Fatalf("version = %d, want 3", fb.Version())
	}
	sum, ok := fb.Summary()
	if !ok || sum != ComputeSummary(data) {
		t.Fatalf("summary %+v (ok=%v), want %+v", sum, ok, ComputeSummary(data))
	}
	sameValues(t, scanAll(t, fb), data)
	checked, err := fb.VerifyPayload()
	if !checked || err != nil {
		t.Fatalf("VerifyPayload = (%v, %v), want (true, nil)", checked, err)
	}
	if MmapSupported() {
		mb, err := OpenMmap(1, path)
		if err != nil {
			t.Fatal(err)
		}
		defer mb.Close()
		sameValues(t, scanAll(t, mb), data)
		checked, err := mb.VerifyPayload()
		if !checked || err != nil {
			t.Fatalf("mmap VerifyPayload = (%v, %v), want (true, nil)", checked, err)
		}
	}
}

func TestSummaryStatistics(t *testing.T) {
	s := ComputeSummary([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	// Known sample variance of this classic dataset: 32/7.
	if math.Abs(s.SampleVariance()-32.0/7) > 1e-12 {
		t.Fatalf("sample variance = %v, want %v", s.SampleVariance(), 32.0/7)
	}
	if got := ComputeSummary(nil); got != (Summary{}) {
		t.Fatalf("empty summary = %+v", got)
	}
	if ComputeSummary([]float64{7}).SampleVariance() != 0 {
		t.Fatal("single-value variance should be 0")
	}
	// Merge matches one-shot accumulation.
	a := ComputeSummary([]float64{1, 2, 3})
	b := ComputeSummary([]float64{4, 5})
	a.Merge(b)
	if one := ComputeSummary([]float64{1, 2, 3, 4, 5}); a != one {
		t.Fatalf("merged %+v, one-shot %+v", a, one)
	}
}

func TestOpenFileFooterCorruption(t *testing.T) {
	dir := t.TempDir()
	data := seq(100)
	for _, tc := range []struct {
		name    string
		corrupt func(path string, size int64) error
	}{
		{"flip-sum-byte", func(path string, size int64) error {
			// A byte inside the footer payload: CRC must catch it.
			return writeBytesAt(path, size-20, []byte{0xFF})
		}},
		{"flip-crc", func(path string, size int64) error {
			return writeBytesAt(path, size-1, []byte{0xAA})
		}},
		{"bad-footer-magic", func(path string, size int64) error {
			return writeBytesAt(path, size-footerSize, []byte("XXXX"))
		}},
		{"truncated-footer", func(path string, size int64) error {
			return os.Truncate(path, size-7)
		}},
		{"count-mismatch", func(path string, size int64) error {
			// A consistent footer for different data: re-encode with a
			// wrong count so the CRC passes but the header disagrees.
			bad := ComputeSummary(seq(99))
			ft := encodeFooter(bad)
			return writeBytesAt(path, size-footerSize, ft[:])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".islb")
			if err := WriteFile(path, data); err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.corrupt(path, st.Size()); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenFile(0, path); err == nil {
				t.Fatal("pread open accepted corrupt file")
			}
			if MmapSupported() {
				if _, err := OpenMmap(0, path); err == nil {
					t.Fatal("mmap open accepted corrupt file")
				}
			}
		})
	}
}

// WriteFileV1 must produce files byte-compatible with the original layout.
func TestWriteFileV1RoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.islb")
	data := []float64{1, 2, 3}
	if err := WriteFileV1(path, data); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != headerSize+8*3 {
		t.Fatalf("v1 size = %d, want %d (no footer)", st.Size(), headerSize+8*3)
	}
	fb, err := OpenFile(0, path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if fb.Version() != FormatV1 {
		t.Fatalf("version = %d, want 1", fb.Version())
	}
	if _, ok := fb.Summary(); ok {
		t.Fatal("v1 block reports a summary")
	}
	sameValues(t, scanAll(t, fb), data)
}

// The double-close contract: the first Close reports the error (nil on
// success), later calls are no-ops returning nil — on blocks and stores.
func TestCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.islb")
	if err := WriteFile(path, seq(16)); err != nil {
		t.Fatal(err)
	}
	fb, err := OpenFile(0, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := fb.Close(); err != nil {
		t.Fatalf("second close must be a nil no-op, got %v", err)
	}
	if MmapSupported() {
		mb, err := OpenMmap(0, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := mb.Close(); err != nil {
			t.Fatalf("first mmap close: %v", err)
		}
		if err := mb.Close(); err != nil {
			t.Fatalf("second mmap close must be a nil no-op, got %v", err)
		}
	}
}

// failingCloser is a Block whose Close fails once, then succeeds — the
// shape a real handle has after its first (failed) release attempt.
type failingCloser struct {
	Block
	fails int
}

func (f *failingCloser) Close() error {
	if f.fails > 0 {
		f.fails--
		return errors.New("close failed")
	}
	return nil
}

func TestStoreCloseFirstErrorWins(t *testing.T) {
	a := &failingCloser{Block: NewMemBlock(0, seq(4)), fails: 1}
	b := &failingCloser{Block: NewMemBlock(1, seq(4)), fails: 1}
	s := NewStore(a, b)
	if err := s.Close(); err == nil {
		t.Fatal("store close swallowed the block errors")
	}
	// Both blocks were attempted despite the first failure.
	if a.fails != 0 || b.fails != 0 {
		t.Fatalf("not every block was closed: a=%d b=%d", a.fails, b.fails)
	}
	// A second store close sees the now-idempotent blocks: nil.
	if err := s.Close(); err != nil {
		t.Fatalf("second store close = %v, want nil", err)
	}
}
