package block

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"

	"isla/internal/stats"
)

// FileBlock is a Block stored in an ISLB file, serviced through positioned
// reads (pread) on a handle opened once by OpenFile and kept for the
// block's lifetime — random-access sampling and scans share it, so no
// operation pays an open/close round-trip. Call Close (directly or via
// Store.Close) when the block is no longer needed. For the zero-copy
// memory-mapped alternative see MmapBlock; Open selects between them.
type FileBlock struct {
	fileHeader

	f         *os.File
	closeOnce sync.Once
}

// fileMeta is the validated metadata openFileCommon extracts from an ISLB
// file's header and footer.
type fileMeta struct {
	version    uint32
	n          int64
	summary    Summary
	hasSummary bool
	payloadCRC uint32 // expected payload checksum (v3 files)
	hasCRC     bool
}

// fileHeader is what both file-backed blocks carry: the block's id and path
// and the metadata openFileCommon validated, with the accessors over them.
type fileHeader struct {
	id   int
	path string
	fileMeta
}

// ID implements Block.
func (h *fileHeader) ID() int { return h.id }

// Len implements Block.
func (h *fileHeader) Len() int64 { return h.n }

// Path returns the underlying file path.
func (h *fileHeader) Path() string { return h.path }

// Version returns the ISLB format version of the backing file.
func (h *fileHeader) Version() uint32 { return h.version }

// Summary implements Summarized: the exact statistics persisted in the
// v2/v3 footer. ok is false for v1 files, which carry none.
func (h *fileHeader) Summary() (Summary, bool) { return h.summary, h.hasSummary }

// openFileCommon opens an ISLB file, validates the header, the size
// against the header's count (before any footer parse, so torn files get
// the distinct truncated/trailing-data diagnosis) and the footer checksum
// (v2/v3), and returns the parsed metadata with the open handle. Integrity
// failures surface as *CorruptBlockError; a wrong file type (bad header
// magic, unknown version) stays a plain error.
func openFileCommon(path string) (*os.File, fileMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fileMeta{}, err
	}
	fail := func(e error) (*os.File, fileMeta, error) {
		f.Close()
		return nil, fileMeta{}, e
	}
	corrupt := func(reason string, err error) (*os.File, fileMeta, error) {
		return fail(&CorruptBlockError{Path: path, Reason: reason, Err: err})
	}
	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return corrupt("truncated header", err)
	}
	version, n, err := parseHeader(hdr[:])
	if err != nil {
		return fail(fmt.Errorf("block: %s: %w", path, err))
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	var meta fileMeta
	meta.version, meta.n = version, n
	switch want := fileSize(version, n); {
	case st.Size() < want:
		return corrupt(fmt.Sprintf("truncated: size %d, want %d for %d values", st.Size(), want, n), nil)
	case st.Size() > want:
		return corrupt(fmt.Sprintf("trailing data: size %d, want %d for %d values", st.Size(), want, n), nil)
	}
	if version == FormatV2 || version == FormatV3 {
		ftSize := int64(footerSize)
		if version == FormatV3 {
			ftSize = footerSizeV3
		}
		ft := make([]byte, ftSize)
		if _, err := f.ReadAt(ft, headerSize+8*n); err != nil {
			return corrupt("unreadable footer", err)
		}
		if version == FormatV3 {
			meta.summary, meta.payloadCRC, err = parseFooterV3(ft)
			meta.hasCRC = err == nil
		} else {
			meta.summary, err = parseFooter(ft)
		}
		if err != nil {
			return corrupt(err.Error(), nil)
		}
		if meta.summary.Count != n {
			return corrupt(fmt.Sprintf("footer count %d disagrees with header %d", meta.summary.Count, n), nil)
		}
		meta.hasSummary = true
	}
	return f, meta, nil
}

// verifyPayloadAt streams the payload region of an open handle through the
// CRC and compares against the footer's expectation.
func verifyPayloadAt(f *os.File, path string, n int64, want uint32) error {
	r := io.NewSectionReader(f, headerSize, 8*n)
	buf := make([]byte, 1<<20)
	var crc uint32
	for {
		k, err := r.Read(buf)
		crc = crc32.Update(crc, castagnoli, buf[:k])
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("block: verifying %s: %w", path, err)
		}
	}
	if crc != want {
		return &CorruptBlockError{Path: path,
			Reason: fmt.Sprintf("payload checksum mismatch: %#08x, want %#08x", crc, want)}
	}
	return nil
}

// OpenFile opens a block file previously written by WriteFile on the pread
// path, validating the header, the size, the footer's CRC (v2/v3) and —
// for v3 files — the payload checksum with one sequential pass, so a
// corrupt payload is rejected at open rather than silently sampled. The
// handle stays open for the block's lifetime — one file descriptor per
// block, so a store's block count is bounded by the process fd limit
// (block counts here are normally tens, not thousands; the paper uses
// b≈10).
func OpenFile(id int, path string) (*FileBlock, error) {
	f, meta, err := openFileCommon(path)
	if err != nil {
		return nil, err
	}
	if meta.hasCRC {
		if err := verifyPayloadAt(f, path, meta.n, meta.payloadCRC); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &FileBlock{fileHeader: fileHeader{id, path, meta}, f: f}, nil
}

// Close releases the block's file handle. Further Scan/SampleInto calls fail.
// The first call returns the handle's close error; later calls are no-ops
// returning nil.
func (b *FileBlock) Close() error {
	var err error
	b.closeOnce.Do(func() { err = b.f.Close() })
	return err
}

// VerifyPayload implements Verifier by re-streaming the payload region
// from disk and checking it against the footer's payload CRC — so a scrub
// detects corruption that happened after the block was opened. checked is
// false for v1/v2 files, which persist no payload checksum.
func (b *FileBlock) VerifyPayload() (bool, error) {
	if !b.hasCRC {
		return false, nil
	}
	return true, verifyPayloadAt(b.f, b.path, b.n, b.payloadCRC)
}

// Scan implements Block by streaming the value section through a buffered
// reader layered over the shared handle (positioned reads, so concurrent
// scans and samples do not interfere).
func (b *FileBlock) Scan(fn func(v float64) error) error {
	r := bufio.NewReaderSize(io.NewSectionReader(b.f, headerSize, 8*b.n), 1<<20)
	var buf [8]byte
	for i := int64(0); i < b.n; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return fmt.Errorf("block: scanning %s at value %d: %w", b.path, i, err)
		}
		if err := fn(math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))); err != nil {
			return err
		}
	}
	return nil
}

// Batched file sampling works in sorted-offset runs: each chunk's draw
// indices are sorted (keyed with their draw position), neighboring indices
// are coalesced into one positioned read when the gap is small, and decoded
// values are scattered back to their draw positions — ascending disk order
// for the kernel, draw order for the caller.
const (
	// fileSpanBytes caps one coalesced read (must cover at least one value).
	fileSpanBytes = 1 << 17
	// fileGapValues is the largest index gap worth reading through: beyond
	// 1024 values (8 KiB) a separate positioned read beats dragging the
	// intervening bytes in.
	fileGapValues = 1024
	// filePosBits packs a draw position (< ChunkSize) into the low bits of
	// a sort key, with the draw index in the high bits.
	filePosBits = 14
)

// A draw position must fit in filePosBits (compile-time check).
var _ [1<<filePosBits - ChunkSize]struct{}

// fileScratch holds the per-chunk working set for batched file sampling.
type fileScratch struct {
	idx  []int64  // draw-order indices for one chunk
	keys []uint64 // index<<filePosBits | position, sorted for locality
	span []byte   // coalesced read buffer
}

var fileScratchPool = sync.Pool{
	New: func() any {
		return &fileScratch{
			idx:  make([]int64, ChunkSize),
			keys: make([]uint64, ChunkSize),
			span: make([]byte, fileSpanBytes),
		}
	},
}

// SampleInto implements Block: bulk index generation, then
// locality-friendly coalesced positioned reads, delivering values in draw
// order.
func (b *FileBlock) SampleInto(r *stats.RNG, dst []float64) error {
	if b.n == 0 {
		if len(dst) == 0 {
			return nil
		}
		return ErrEmptyBlock
	}
	sc := fileScratchPool.Get().(*fileScratch)
	defer fileScratchPool.Put(sc)
	for len(dst) > 0 {
		k := len(dst)
		if k > ChunkSize {
			k = ChunkSize
		}
		if err := b.sampleChunk(r, dst[:k], sc); err != nil {
			return err
		}
		dst = dst[k:]
	}
	return nil
}

// sampleChunk services one chunk of at most ChunkSize draws.
func (b *FileBlock) sampleChunk(r *stats.RNG, dst []float64, sc *fileScratch) error {
	k := len(dst)
	idx := sc.idx[:k]
	r.FillInt63n(idx, b.n)
	keys := sc.keys[:k]
	for i, j := range idx {
		keys[i] = uint64(j)<<filePosBits | uint64(i)
	}
	slices.Sort(keys)
	for i := 0; i < k; {
		base := int64(keys[i] >> filePosBits)
		// Extend the run while the next index is close enough to coalesce
		// and the span still fits the read buffer.
		j := i + 1
		for j < k {
			next := int64(keys[j] >> filePosBits)
			prev := int64(keys[j-1] >> filePosBits)
			if next-prev > fileGapValues || (next-base+1)*8 > fileSpanBytes {
				break
			}
			j++
		}
		last := int64(keys[j-1] >> filePosBits)
		span := sc.span[:(last-base+1)*8]
		off := headerSize + 8*base
		if _, err := b.f.ReadAt(span, off); err != nil {
			return fmt.Errorf("block: sampling %s at offset %d: %w", b.path, off, err)
		}
		for t := i; t < j; t++ {
			id := int64(keys[t] >> filePosBits)
			pos := keys[t] & (1<<filePosBits - 1)
			dst[pos] = math.Float64frombits(binary.LittleEndian.Uint64(span[8*(id-base):]))
		}
		i = j
	}
	return nil
}

// WritePartitioned writes data as b block files named <prefix>.000, ... and
// returns a Store over them, mirroring the paper's "pre-processed and saved
// in b documents to simulate b blocks" experimental setup. Blocks open in
// the default mode (memory-mapped where supported); use
// WritePartitionedMode to force one. Close the store to release the
// mappings / file handles.
func WritePartitioned(prefix string, data []float64, b int) (*Store, error) {
	return WritePartitionedMode(prefix, data, b, ModeAuto)
}

// WritePartitionedMode is WritePartitioned with an explicit open mode for
// the blocks of the returned store.
func WritePartitionedMode(prefix string, data []float64, b int, mode OpenMode) (*Store, error) {
	if b <= 0 {
		return nil, fmt.Errorf("block: partition count %d must be positive", b)
	}
	blocks := make([]Block, 0, b)
	n := len(data)
	for i := 0; i < b; i++ {
		lo := i * n / b
		hi := (i + 1) * n / b
		path := fmt.Sprintf("%s.%03d", prefix, i)
		if err := WriteFile(path, data[lo:hi]); err != nil {
			// Release the handles already opened before reporting.
			NewStore(blocks...).Close()
			return nil, err
		}
		fb, err := Open(i, path, mode)
		if err != nil {
			NewStore(blocks...).Close()
			return nil, err
		}
		blocks = append(blocks, fb)
	}
	return NewStore(blocks...), nil
}
