package block

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"isla/internal/fsio"
)

// The ISLB on-disk format. Every block file starts with a 16-byte header:
//
//	bytes 0..3   magic "ISLB"
//	bytes 4..7   format version, big-endian uint32 (1, 2 or 3)
//	bytes 8..15  value count n, little-endian uint64
//
// followed by n little-endian float64 values. Version 2 files additionally
// end with a 48-byte summary footer persisting the block's exact statistics
// so consumers never rescan an immutable file:
//
//	bytes 0..3   footer magic "ISLF"
//	bytes 4..11  value count (must match the header), little-endian uint64
//	bytes 12..19 min, float64
//	bytes 20..27 max, float64
//	bytes 28..35 sum Σa, float64
//	bytes 36..43 sum of squares Σa², float64
//	bytes 44..47 CRC-32C (Castagnoli) over footer bytes 0..43
//
// Version 3 extends the footer to 52 bytes with a checksum over the data
// payload itself, so a flipped bit anywhere in the value region is
// detectable — not just footer damage:
//
//	bytes 0..43  as in v2
//	bytes 44..47 CRC-32C (Castagnoli) over the 8·n payload bytes
//	bytes 48..51 CRC-32C (Castagnoli) over footer bytes 0..47
//
// Version 1 (header + values, no footer) and version 2 files remain
// readable forever; golden fixtures pin all three layouts.
const (
	headerSize   = 16
	footerSize   = 48
	footerSizeV3 = 52

	// FormatV1 is the original header+values layout.
	FormatV1 uint32 = 1
	// FormatV2 appends the per-block summary footer.
	FormatV2 uint32 = 2
	// FormatV3 adds the payload CRC to the footer; the default since the
	// storage-integrity work landed.
	FormatV3 uint32 = 3
)

var (
	headerMagic = [4]byte{'I', 'S', 'L', 'B'}
	footerMagic = [4]byte{'I', 'S', 'L', 'F'}

	// castagnoli is the CRC-32C table used for the footer checksum
	// (hardware-accelerated on amd64/arm64).
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Summary is the exact per-block statistics persisted in an ISLB v2 footer:
// everything the pre-estimation module and the scan-hungry baselines need,
// in O(1) space. Sum and SumSq accumulate left to right in storage order, so
// a summary computed at write time is bit-identical to one folded by a
// sequential scan of the same file.
type Summary struct {
	Count int64
	Min   float64
	Max   float64
	Sum   float64
	SumSq float64
}

// ComputeSummary folds data into a Summary, left to right.
func ComputeSummary(data []float64) Summary {
	var s Summary
	s.AddAll(data)
	return s
}

// AddAll folds values into the summary, left to right.
func (s *Summary) AddAll(data []float64) {
	if len(data) == 0 {
		return
	}
	count, mn, mx, sum, sumsq := s.Count, s.Min, s.Max, s.Sum, s.SumSq
	for _, v := range data {
		if count == 0 {
			mn, mx = v, v
		} else {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		count++
		sum += v
		sumsq += v * v
	}
	s.Count, s.Min, s.Max, s.Sum, s.SumSq = count, mn, mx, sum, sumsq
}

// Merge folds another summary into the receiver (per-block footers → store
// totals).
func (s *Summary) Merge(o Summary) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = o
		return
	}
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Sum += o.Sum
	s.SumSq += o.SumSq
}

// Mean returns Σa/n (0 when empty).
func (s Summary) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// SampleVariance returns the Bessel-corrected variance derived from the
// power sums, clamped at zero against cancellation noise.
func (s Summary) SampleVariance() float64 {
	if s.Count < 2 {
		return 0
	}
	v := (s.SumSq - s.Sum*s.Sum/float64(s.Count)) / float64(s.Count-1)
	if v < 0 {
		return 0
	}
	return v
}

// SampleStdDev returns the Bessel-corrected standard deviation.
func (s Summary) SampleStdDev() float64 { return math.Sqrt(s.SampleVariance()) }

// SummaryClass is the zone-map classification of a block's value envelope
// against a closed predicate interval [lo, hi]: whether the persisted
// min/max prove something about every value in the block.
type SummaryClass int

const (
	// SummaryOverlap: the envelope straddles the interval (or proves
	// nothing) — the block must be sampled through the filter.
	SummaryOverlap SummaryClass = iota
	// SummaryDisjoint: no value in the block can satisfy the interval; the
	// block contributes an exact zero without being touched.
	SummaryDisjoint
	// SummaryContained: every value in the block satisfies the interval;
	// the block samples through the unfiltered fast path with acceptance
	// probability exactly 1.
	SummaryContained
)

// String returns the diagnostic spelling of the class.
func (c SummaryClass) String() string {
	switch c {
	case SummaryDisjoint:
		return "disjoint"
	case SummaryContained:
		return "contained"
	default:
		return "overlap"
	}
}

// Classify compares the summary's [Min, Max] envelope against the closed
// interval [lo, hi]. The classification is conservative in every edge
// case the footer cannot rule out:
//
//   - An empty summary is disjoint (vacuously, no value matches).
//   - NaN values never satisfy an interval and never enter Min/Max, so a
//     disjoint verdict from the non-NaN envelope holds for the whole
//     block; but SummaryContained additionally requires Sum to be non-NaN
//     — a NaN anywhere in the data poisons Sum, so a finite Sum proves the
//     block is NaN-free and the envelope really covers every value.
//   - A NaN Min or Max (all-NaN block prefix) fails every comparison and
//     lands on SummaryOverlap, the always-safe answer.
func (s Summary) Classify(lo, hi float64) SummaryClass {
	if s.Count == 0 {
		return SummaryDisjoint
	}
	if s.Max < lo || s.Min > hi {
		return SummaryDisjoint
	}
	if lo <= s.Min && s.Max <= hi && !math.IsNaN(s.Sum) {
		return SummaryContained
	}
	return SummaryOverlap
}

// Summarized is the capability interface for blocks that carry a persisted
// (or otherwise O(1)) exact summary. The boolean is false when the backing
// storage has no summary — e.g. a v1 block file.
type Summarized interface {
	Summary() (Summary, bool)
}

// BlockSummary returns b's summary when the block exposes one.
func BlockSummary(b Block) (Summary, bool) {
	if sb, ok := b.(Summarized); ok {
		return sb.Summary()
	}
	return Summary{}, false
}

// encodeHeader builds the 16-byte ISLB header.
func encodeHeader(version uint32, n int64) [headerSize]byte {
	var hdr [headerSize]byte
	copy(hdr[:4], headerMagic[:])
	binary.BigEndian.PutUint32(hdr[4:8], version)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(n))
	return hdr
}

// parseHeader validates an ISLB header and returns the format version and
// value count. It never reads beyond the 16 bytes given.
func parseHeader(hdr []byte) (version uint32, n int64, err error) {
	if len(hdr) < headerSize {
		return 0, 0, fmt.Errorf("header truncated: %d bytes, want %d", len(hdr), headerSize)
	}
	if [4]byte(hdr[:4]) != headerMagic {
		return 0, 0, fmt.Errorf("bad magic %q", hdr[:4])
	}
	version = binary.BigEndian.Uint32(hdr[4:8])
	if version != FormatV1 && version != FormatV2 && version != FormatV3 {
		return 0, 0, fmt.Errorf("unsupported format version %d", version)
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	if count > math.MaxInt64/8 {
		return 0, 0, fmt.Errorf("implausible value count %d", count)
	}
	return version, int64(count), nil
}

// encodeFooter builds the 48-byte v2 summary footer, checksum included.
func encodeFooter(s Summary) [footerSize]byte {
	var ft [footerSize]byte
	copy(ft[:4], footerMagic[:])
	binary.LittleEndian.PutUint64(ft[4:12], uint64(s.Count))
	binary.LittleEndian.PutUint64(ft[12:20], math.Float64bits(s.Min))
	binary.LittleEndian.PutUint64(ft[20:28], math.Float64bits(s.Max))
	binary.LittleEndian.PutUint64(ft[28:36], math.Float64bits(s.Sum))
	binary.LittleEndian.PutUint64(ft[36:44], math.Float64bits(s.SumSq))
	binary.LittleEndian.PutUint32(ft[44:48], crc32.Checksum(ft[:44], castagnoli))
	return ft
}

// parseFooter validates a v2 footer (magic + CRC) and returns the summary.
// It never reads beyond the 48 bytes given.
func parseFooter(ft []byte) (Summary, error) {
	if len(ft) < footerSize {
		return Summary{}, fmt.Errorf("footer truncated: %d bytes, want %d", len(ft), footerSize)
	}
	if [4]byte(ft[:4]) != footerMagic {
		return Summary{}, fmt.Errorf("bad footer magic %q", ft[:4])
	}
	want := binary.LittleEndian.Uint32(ft[44:48])
	if got := crc32.Checksum(ft[:44], castagnoli); got != want {
		return Summary{}, fmt.Errorf("footer checksum mismatch: %#08x, want %#08x", got, want)
	}
	return decodeFooterStats(ft)
}

// encodeFooterV3 builds the 52-byte v3 footer: the v2 statistics plus the
// payload CRC, self-checksummed over bytes 0..47.
func encodeFooterV3(s Summary, payloadCRC uint32) [footerSizeV3]byte {
	var ft [footerSizeV3]byte
	v2 := encodeFooter(s)
	copy(ft[:44], v2[:44])
	binary.LittleEndian.PutUint32(ft[44:48], payloadCRC)
	binary.LittleEndian.PutUint32(ft[48:52], crc32.Checksum(ft[:48], castagnoli))
	return ft
}

// parseFooterV3 validates a v3 footer (magic + footer CRC) and returns the
// summary together with the expected payload CRC. It never reads beyond
// the 52 bytes given.
func parseFooterV3(ft []byte) (Summary, uint32, error) {
	if len(ft) < footerSizeV3 {
		return Summary{}, 0, fmt.Errorf("footer truncated: %d bytes, want %d", len(ft), footerSizeV3)
	}
	if [4]byte(ft[:4]) != footerMagic {
		return Summary{}, 0, fmt.Errorf("bad footer magic %q", ft[:4])
	}
	want := binary.LittleEndian.Uint32(ft[48:52])
	if got := crc32.Checksum(ft[:48], castagnoli); got != want {
		return Summary{}, 0, fmt.Errorf("footer checksum mismatch: %#08x, want %#08x", got, want)
	}
	sum, err := decodeFooterStats(ft)
	if err != nil {
		return Summary{}, 0, err
	}
	return sum, binary.LittleEndian.Uint32(ft[44:48]), nil
}

// decodeFooterStats extracts the statistics common to the v2 and v3 footer
// layouts (bytes 4..43), after the caller verified magic and checksum.
func decodeFooterStats(ft []byte) (Summary, error) {
	count := binary.LittleEndian.Uint64(ft[4:12])
	if count > math.MaxInt64/8 {
		return Summary{}, fmt.Errorf("implausible footer count %d", count)
	}
	return Summary{
		Count: int64(count),
		Min:   math.Float64frombits(binary.LittleEndian.Uint64(ft[12:20])),
		Max:   math.Float64frombits(binary.LittleEndian.Uint64(ft[20:28])),
		Sum:   math.Float64frombits(binary.LittleEndian.Uint64(ft[28:36])),
		SumSq: math.Float64frombits(binary.LittleEndian.Uint64(ft[36:44])),
	}, nil
}

// payloadChecksum computes the CRC-32C a v3 footer carries for the given
// values: the checksum of their little-endian encoding in storage order.
func payloadChecksum(data []float64) uint32 {
	var crc uint32
	var buf [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		crc = crc32.Update(crc, castagnoli, buf[:])
	}
	return crc
}

// WriteFile writes data to path in the current ISLB format (v3): header,
// values, summary footer with payload checksum. The write is atomic and
// durable (temp file → fsync → rename → directory fsync via fsio), so a
// crash mid-write never publishes a torn block.
func WriteFile(path string, data []float64) error {
	return writeFileVersion(path, data, FormatV3)
}

// WriteFileV1 writes the legacy footer-less v1 layout — kept for
// compatibility fixtures and for producing files older readers understand.
func WriteFileV1(path string, data []float64) error {
	return writeFileVersion(path, data, FormatV1)
}

// WriteFileV2 writes the v2 layout (summary footer, no payload checksum) —
// kept for compatibility fixtures and older readers.
func WriteFileV2(path string, data []float64) error {
	return writeFileVersion(path, data, FormatV2)
}

func writeFileVersion(path string, data []float64, version uint32) error {
	if version != FormatV1 && version != FormatV2 && version != FormatV3 {
		return fmt.Errorf("block: unsupported format version %d", version)
	}
	return fsio.WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		hdr := encodeHeader(version, int64(len(data)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		// The payload CRC folds incrementally over the exact bytes written,
		// value by value — one pass, no payload-sized buffer.
		var payloadCRC uint32
		var buf [8]byte
		for _, v := range data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			if _, err := w.Write(buf[:]); err != nil {
				return err
			}
			if version == FormatV3 {
				payloadCRC = crc32.Update(payloadCRC, castagnoli, buf[:])
			}
		}
		switch version {
		case FormatV2:
			ft := encodeFooter(ComputeSummary(data))
			if _, err := w.Write(ft[:]); err != nil {
				return err
			}
		case FormatV3:
			ft := encodeFooterV3(ComputeSummary(data), payloadCRC)
			if _, err := w.Write(ft[:]); err != nil {
				return err
			}
		}
		return nil
	})
}

// fileSize returns the expected size of an ISLB file with n values.
func fileSize(version uint32, n int64) int64 {
	size := int64(headerSize) + 8*n
	switch version {
	case FormatV2:
		size += footerSize
	case FormatV3:
		size += footerSizeV3
	}
	return size
}
