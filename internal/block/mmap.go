package block

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"unsafe"

	"isla/internal/stats"
)

// ErrMmapUnsupported is returned by Open with ModeMmap on platforms (or
// byte orders) where the zero-copy mapping cannot be used; ModeAuto falls
// back to the pread path instead of failing.
var ErrMmapUnsupported = errors.New("block: mmap not supported on this platform")

// hostLittleEndian reports whether the host stores multi-byte integers
// little-endian. ISLB files are little-endian on disk, so the zero-copy
// reinterpretation of the value region as []float64 is only valid on LE
// hosts; big-endian hosts (s390x, some MIPS) use the decoding pread path.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// MmapSupported reports whether this build can serve blocks through the
// zero-copy memory mapping (unix mmap shim present and little-endian host).
func MmapSupported() bool { return mmapAvailable && hostLittleEndian }

// OpenMode selects how Open services an ISLB block file.
type OpenMode int

const (
	// ModeAuto memory-maps where supported and falls back to positioned
	// reads elsewhere — the default everywhere a mode is not given.
	ModeAuto OpenMode = iota
	// ModeMmap requires the zero-copy mapping; Open fails with
	// ErrMmapUnsupported where it cannot be provided.
	ModeMmap
	// ModePread forces the positioned-read path of FileBlock.
	ModePread
)

// String returns the flag spelling of the mode.
func (m OpenMode) String() string {
	switch m {
	case ModeMmap:
		return "mmap"
	case ModePread:
		return "pread"
	default:
		return "auto"
	}
}

// ParseOpenMode parses the flag spelling of an open mode ("auto", "mmap",
// "pread").
func ParseOpenMode(s string) (OpenMode, error) {
	switch s {
	case "auto", "":
		return ModeAuto, nil
	case "mmap":
		return ModeMmap, nil
	case "pread":
		return ModePread, nil
	}
	return ModeAuto, fmt.Errorf("block: unknown open mode %q (want auto, mmap or pread)", s)
}

// Open opens an ISLB block file in the given mode. Both paths validate the
// same header, size and footer invariants and consume identical RNG
// streams, so estimates are bit-identical per seed regardless of mode.
func Open(id int, path string, mode OpenMode) (Block, error) {
	switch mode {
	case ModePread:
		return OpenFile(id, path)
	case ModeMmap:
		return OpenMmap(id, path)
	default:
		if MmapSupported() {
			return OpenMmap(id, path)
		}
		return OpenFile(id, path)
	}
}

// MmapBlock is a Block backed by a memory-mapped ISLB file: the value
// region is reinterpreted in place as a []float64, so sampling is a direct
// slice gather and scanning folds straight out of the page cache — zero
// syscalls and zero copies per draw after the single mmap at open. The
// mapping is read-only and shared; the file descriptor is closed right
// after mapping, so an MmapBlock holds no fd for its lifetime.
type MmapBlock struct {
	id      int
	path    string
	n       int64
	version uint32
	summary Summary
	summOK  bool
	crc     uint32 // expected payload CRC (v3)
	crcOK   bool   // the file carries a payload CRC

	mapped []byte    // whole-file mapping, released by Close
	data   []float64 // zero-copy view of the value region

	// Close-vs-operation discipline: every data-touching operation holds a
	// reference for its duration. Close marks the block closed (new
	// operations fail) and the munmap itself runs only once no operation
	// is in flight — whoever drops the count to zero performs it. A pread
	// block turns close-during-operation into a read error; without this,
	// the mapped equivalent would be a fault on unmapped pages.
	refs      atomic.Int64
	closed    atomic.Bool
	unmapOnce sync.Once
}

// OpenMmap opens a block file through the zero-copy mapping, validating
// the same header/size/footer invariants as OpenFile. Unlike OpenFile it
// does NOT verify the v3 payload checksum at open — that would fault every
// page in and defeat the lazy mapping; call VerifyPayload (directly or via
// Store.Scrub) to check on demand. It fails with ErrMmapUnsupported where
// the platform cannot map little-endian float64 values in place.
func OpenMmap(id int, path string) (*MmapBlock, error) {
	if !MmapSupported() {
		return nil, ErrMmapUnsupported
	}
	f, meta, err := openFileCommon(path)
	if err != nil {
		return nil, err
	}
	mapped, err := mmapFile(f.Fd(), int(fileSize(meta.version, meta.n)))
	f.Close() // the mapping outlives the descriptor
	if err != nil {
		return nil, fmt.Errorf("block: mmap %s: %w", path, err)
	}
	b := &MmapBlock{id: id, path: path, n: meta.n, version: meta.version,
		summary: meta.summary, summOK: meta.hasSummary,
		crc: meta.payloadCRC, crcOK: meta.hasCRC, mapped: mapped}
	if meta.n > 0 {
		// headerSize is 8-aligned and mappings are page-aligned, so the
		// value region is a valid []float64 in place on LE hosts.
		b.data = unsafe.Slice((*float64)(unsafe.Pointer(&mapped[headerSize])), meta.n)
	}
	return b, nil
}

// Close releases the mapping. Further Scan/SampleInto calls fail; operations
// already in flight finish against the still-valid mapping, and the last
// one out performs the munmap. The first Close returns the munmap error
// when it unmaps synchronously (no operation in flight); later calls are
// no-ops returning nil.
func (b *MmapBlock) Close() error {
	if b.closed.Swap(true) {
		return nil
	}
	if b.refs.Load() > 0 {
		return nil // the draining operation unmaps in release
	}
	return b.unmap()
}

// unmap releases the mapping exactly once. Callers guarantee no operation
// is in flight.
func (b *MmapBlock) unmap() error {
	var err error
	b.unmapOnce.Do(func() {
		b.data = nil
		err = munmapFile(b.mapped)
		b.mapped = nil
	})
	return err
}

// acquire registers an in-flight operation; it fails once Close has been
// called. A successful acquire keeps the mapping valid until release.
func (b *MmapBlock) acquire() error {
	b.refs.Add(1)
	if b.closed.Load() {
		b.release()
		return fmt.Errorf("block: %s: mapping closed", b.path)
	}
	return nil
}

// release drops an operation's reference; the reference that drains a
// closed block performs the deferred munmap.
func (b *MmapBlock) release() {
	if b.refs.Add(-1) == 0 && b.closed.Load() {
		b.unmap()
	}
}

// ID implements Block.
func (b *MmapBlock) ID() int { return b.id }

// Len implements Block.
func (b *MmapBlock) Len() int64 { return b.n }

// Path returns the underlying file path.
func (b *MmapBlock) Path() string { return b.path }

// Version returns the ISLB format version of the backing file.
func (b *MmapBlock) Version() uint32 { return b.version }

// Summary implements Summarized: the exact statistics persisted in the
// v2/v3 footer. ok is false for v1 files, which carry none.
func (b *MmapBlock) Summary() (Summary, bool) { return b.summary, b.summOK }

// VerifyPayload implements Verifier by running the CRC over the mapped
// payload region — one sequential pass through the page cache, no copies.
// checked is false for v1/v2 files, which persist no payload checksum.
func (b *MmapBlock) VerifyPayload() (bool, error) {
	if !b.crcOK {
		return false, nil
	}
	if err := b.acquire(); err != nil {
		return true, err
	}
	defer b.release()
	crc := crc32.Checksum(b.mapped[headerSize:headerSize+8*b.n], castagnoli)
	if crc != b.crc {
		return true, &CorruptBlockError{Path: b.path,
			Reason: fmt.Sprintf("payload checksum mismatch: %#08x, want %#08x", crc, b.crc)}
	}
	return true, nil
}

// Scan implements Block by folding the mapped values in place: no read
// syscalls, no chunk buffer — fn sees the page cache directly.
func (b *MmapBlock) Scan(fn func(v float64) error) error {
	if err := b.acquire(); err != nil {
		return err
	}
	defer b.release()
	for _, v := range b.data {
		if err := fn(v); err != nil {
			return err
		}
	}
	return nil
}

// SampleInto implements Block by bulk-generating indices and gathering
// straight from the mapping — the same code path as an in-memory
// block, so mmap draws cost what RAM draws cost once the pages are warm.
func (b *MmapBlock) SampleInto(r *stats.RNG, dst []float64) error {
	if b.n == 0 {
		if len(dst) == 0 {
			return nil
		}
		return ErrEmptyBlock
	}
	if err := b.acquire(); err != nil {
		return err
	}
	defer b.release()
	return sampleIntoSlice(b.data, r, dst)
}
