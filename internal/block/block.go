// Package block implements the partitioned-storage substrate ISLA runs on.
//
// The paper assumes data too large for centralized storage, split across b
// "blocks" (machines or files); all aggregation work happens per block and
// partial answers are gathered afterwards. This package provides the Block
// abstraction with two implementations — an in-memory block and a binary
// file-backed block — plus a Store that groups the blocks of one table.
package block

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"

	"isla/internal/stats"
)

// Block is one partition of a column. Implementations must support a full
// sequential scan (used for golden answers and for the baselines that need
// totals) and uniform random sampling with replacement (the access pattern
// of the paper's Algorithm 1).
type Block interface {
	// ID returns the block's identifier, unique within its Store.
	ID() int
	// Len returns the number of values in the block.
	Len() int64
	// Scan calls fn for every value in storage order. It stops early and
	// returns fn's error if fn returns a non-nil error.
	Scan(fn func(v float64) error) error
	// SampleInto draws len(dst) values uniformly at random with replacement
	// into dst, in draw order: one r.Int63n(Len()) per draw, nothing else
	// consumed, so every implementation yields the same values from the same
	// generator state. It is the block's one sampling method; callers go
	// through SampleChunks (pooled buffer, chunk-at-a-time delivery).
	SampleInto(r *stats.RNG, dst []float64) error
}

// ErrEmptyBlock is returned when an operation requires a non-empty block.
var ErrEmptyBlock = errors.New("block: empty block")

// MemBlock is an in-memory Block backed by a []float64.
type MemBlock struct {
	id   int
	data []float64
}

// NewMemBlock wraps data (not copied) as a block with the given id.
func NewMemBlock(id int, data []float64) *MemBlock {
	return &MemBlock{id: id, data: data}
}

// ID implements Block.
func (b *MemBlock) ID() int { return b.id }

// Len implements Block.
func (b *MemBlock) Len() int64 { return int64(len(b.data)) }

// Data exposes the underlying slice; used by exact-answer computation in
// tests and the golden-truth paths of the bench harness.
func (b *MemBlock) Data() []float64 { return b.data }

// Scan implements Block.
func (b *MemBlock) Scan(fn func(v float64) error) error {
	for _, v := range b.data {
		if err := fn(v); err != nil {
			return err
		}
	}
	return nil
}

// Store is an ordered collection of blocks forming one logical column, with
// cached total size. It mirrors the paper's B = {B1..Bb}.
//
// A store tracks a quarantine set: blocks whose backing bytes failed an
// integrity check (payload checksum mismatch, torn write). Quarantined
// blocks are excluded from sampling quotas and refused by Scan, so queries
// either degrade to the intact fraction (when the caller opts in) or fail
// loudly — corrupt values are never silently folded into an estimate. The
// footers of quarantined blocks remain trusted: they carry their own CRC
// and record seal-time statistics, so Summary and SummaryChecksum are
// unaffected by quarantine.
//
// A store owns its blocks (Close releases them); a View over a range of
// them owns nothing but shares the store's quarantine set, so a block
// quarantined through either is quarantined for both.
type Store struct {
	blocks []Block
	total  int64
	quar   *quarantine
	view   bool // a View: the blocks belong to the store it was cut from
}

// quarantine is a set of quarantined block IDs, shared by a store and its
// views. Block IDs are unique within a store, so one set serves them all.
type quarantine struct {
	mu  sync.RWMutex
	ids map[int]bool
}

// NewStore builds a store over the given blocks.
func NewStore(blocks ...Block) *Store {
	s := &Store{blocks: blocks, quar: &quarantine{}}
	for _, b := range blocks {
		s.total += b.Len()
	}
	return s
}

// View returns a store over blocks [lo, hi) of s: same blocks, same IDs,
// same quarantine set. Everything it reports — sizes, quotas, scans,
// quarantined IDs — concerns its own blocks only; Quarantine through it
// marks only its own blocks; Close releases nothing.
func (s *Store) View(lo, hi int) *Store {
	v := &Store{blocks: s.blocks[lo:hi:hi], quar: s.quar, view: true}
	for _, b := range v.blocks {
		v.total += b.Len()
	}
	return v
}

// Blocks returns the underlying block list (do not mutate).
func (s *Store) Blocks() []Block { return s.blocks }

// NumBlocks returns b, the number of blocks.
func (s *Store) NumBlocks() int { return len(s.blocks) }

// TotalLen returns M, the total number of values.
func (s *Store) TotalLen() int64 { return s.total }

// Block returns the i-th block.
func (s *Store) Block(i int) Block { return s.blocks[i] }

// Quarantine marks the given block IDs as corrupt: they stop receiving
// sampling quota and Scan refuses them. Idempotent; IDs of blocks outside
// the store are ignored.
func (s *Store) Quarantine(ids ...int) {
	if len(ids) == 0 {
		return
	}
	s.quar.mu.Lock()
	defer s.quar.mu.Unlock()
	for _, b := range s.blocks {
		if slices.Contains(ids, b.ID()) {
			if s.quar.ids == nil {
				s.quar.ids = make(map[int]bool)
			}
			s.quar.ids[b.ID()] = true
		}
	}
}

// ClearQuarantine lifts the quarantine of the store's blocks — called after
// corrupt blocks have been repaired or replaced (followed by a re-scrub to
// prove it).
func (s *Store) ClearQuarantine() {
	s.quar.mu.Lock()
	defer s.quar.mu.Unlock()
	for _, b := range s.blocks {
		delete(s.quar.ids, b.ID())
	}
}

// QuarantinedIDs returns the IDs of the store's quarantined blocks in
// ascending order, nil when the store is healthy.
func (s *Store) QuarantinedIDs() []int {
	quar := s.quarantineSet()
	var ids []int
	for _, b := range s.blocks {
		if quar[b.ID()] {
			ids = append(ids, b.ID())
		}
	}
	sort.Ints(ids)
	return ids
}

// QuarantinedRows returns the number of values held by quarantined blocks
// — the rows a degraded query cannot cover.
func (s *Store) QuarantinedRows() int64 {
	quar := s.quarantineSet()
	if quar == nil {
		return 0
	}
	var rows int64
	for _, b := range s.blocks {
		if quar[b.ID()] {
			rows += b.Len()
		}
	}
	return rows
}

// CoveredLen returns the number of values in intact (non-quarantined)
// blocks: the denominator of every degraded estimate. Equal to TotalLen on
// a healthy store.
func (s *Store) CoveredLen() int64 { return s.total - s.QuarantinedRows() }

// quarantineSet snapshots the shared quarantine set, nil when empty, so hot
// paths take the lock once instead of per block. Callers look up their own
// blocks' IDs in it.
func (s *Store) quarantineSet() map[int]bool {
	s.quar.mu.RLock()
	defer s.quar.mu.RUnlock()
	if len(s.quar.ids) == 0 {
		return nil
	}
	return maps.Clone(s.quar.ids)
}

// Scan runs fn over every value of every block in order. A quarantined
// block fails the scan with a CorruptBlockError: exact answers cannot
// degrade, so a full scan over a damaged store must refuse rather than
// return a silently wrong total.
func (s *Store) Scan(fn func(v float64) error) error {
	quar := s.quarantineSet()
	for _, b := range s.blocks {
		if quar[b.ID()] {
			return &CorruptBlockError{Path: BlockPath(b), Reason: "quarantined"}
		}
		if err := b.Scan(fn); err != nil {
			return err
		}
	}
	return nil
}

// Summary merges the per-block persisted summaries into store totals. ok
// is true only when every non-empty block carries one (ISLB v2 blocks do;
// in-memory and v1 blocks don't), so a true result is always exact for the
// whole store and cost O(b) — no data was touched.
func (s *Store) Summary() (Summary, bool) {
	var acc Summary
	for _, b := range s.blocks {
		sum, ok := BlockSummary(b)
		if !ok {
			if b.Len() == 0 {
				continue // an empty block contributes nothing either way
			}
			return Summary{}, false
		}
		acc.Merge(sum)
	}
	return acc, true
}

// SummaryChecksum folds the per-block summary checksums (the CRC-32C
// values persisted in v2 footers, as captured when each block was opened)
// into one store-wide fingerprint, FNV-1a over block order. It returns 0
// when no block carries a summary, so purely in-memory stores keep a
// stable zero fingerprint. Plan caches key derived state by it: a store
// opened over different block files fingerprints differently, so cached
// plans bind to the summary content they were derived from.
func (s *Store) SummaryChecksum() uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	any := false
	for _, b := range s.blocks {
		var c uint32
		if sum, ok := BlockSummary(b); ok {
			c = sum.Checksum()
			any = true
		}
		h ^= uint64(c)
		h *= fnvPrime
	}
	if !any {
		return 0
	}
	return h
}

// ExactMean computes the true average — the golden truth the approximate
// estimators are judged against. Stores whose blocks all persist summaries
// answer from them without touching data (footers carry their own CRC and
// stay trusted after payload damage); otherwise a full scan runs, which
// refuses a quarantined block with a CorruptBlockError exactly like Scan.
// It returns an error for an empty store.
func (s *Store) ExactMean() (float64, error) {
	if s.total == 0 {
		return 0, ErrEmptyBlock
	}
	if sum, ok := s.Summary(); ok && sum.Count > 0 {
		return sum.Mean(), nil
	}
	// Per-block Welford then merge, to stay stable on large stores.
	quar := s.quarantineSet()
	var acc stats.Moments
	for _, b := range s.blocks {
		if quar[b.ID()] {
			return 0, &CorruptBlockError{Path: BlockPath(b), Reason: "quarantined"}
		}
		var m stats.Moments
		if err := b.Scan(func(v float64) error { m.Add(v); return nil }); err != nil {
			return 0, err
		}
		acc.Merge(m)
	}
	return acc.Mean(), nil
}

// ExactSum computes the true sum with a full scan.
func (s *Store) ExactSum() (float64, error) {
	if s.total == 0 {
		return 0, ErrEmptyBlock
	}
	mean, err := s.ExactMean()
	if err != nil {
		return 0, err
	}
	return mean * float64(s.total), nil
}

// Quotas allocates m draws across the store's blocks proportionally to
// block size (the paper's Pre-estimation sampling discipline): quota_i =
// ⌊m·|B_i|/M⌋ with the rounding slack absorbed by the last non-empty
// block, so stores with trailing empty blocks still fill the full quota.
// Empty and quarantined blocks get zero; on a damaged store the
// denominator is the covered row count, so the full budget lands
// proportionally on the intact fraction. It returns nil when the store is
// empty, m <= 0, or every non-empty block is quarantined.
func (s *Store) Quotas(m int64) []int64 {
	if s.total == 0 || m <= 0 {
		return nil
	}
	quar := s.quarantineSet()
	lens := make([]int64, len(s.blocks))
	for i, b := range s.blocks {
		if !quar[b.ID()] {
			lens[i] = b.Len()
		}
	}
	return QuotasFor(lens, m)
}

// QuotasFor is the pure allocation core of Store.Quotas: m draws spread
// proportionally over blocks of the given lengths, quota_i = ⌊m·len_i/M⌋
// with the rounding slack absorbed by the last non-empty block. Callers
// that must exclude blocks (quarantine, shard loss) zero their lengths
// first. It returns nil when every length is zero or m <= 0. The filtered
// pipelines call it with their source's layout, so every source allocates
// identically for the same block lengths.
func QuotasFor(lens []int64, m int64) []int64 {
	var total int64
	for _, l := range lens {
		total += l
	}
	if total == 0 || m <= 0 {
		return nil
	}
	last := -1
	for i, l := range lens {
		if l > 0 {
			last = i
		}
	}
	quotas := make([]int64, len(lens))
	remaining := m
	for i, l := range lens {
		if l == 0 {
			continue
		}
		var quota int64
		if i == last {
			quota = remaining
		} else {
			quota = m * l / total
			if quota > remaining {
				quota = remaining
			}
		}
		remaining -= quota
		quotas[i] = quota
	}
	return quotas
}

// PilotSampleChunks draws m values uniformly across the store: quotas are
// allocated proportionally to block size (see Quotas, the paper's
// Pre-estimation sampling discipline) and each block's draw is serviced
// chunk-at-a-time through fn (draw order, pooled buffer — fn must not retain
// the slice).
func (s *Store) PilotSampleChunks(r *stats.RNG, m int64, fn func(vs []float64) error) error {
	if s.total == 0 {
		return ErrEmptyBlock
	}
	if m <= 0 {
		return fmt.Errorf("block: pilot sample size %d must be positive", m)
	}
	quotas := s.Quotas(m)
	if quotas == nil {
		// total > 0 and m > 0, so nil means every block is quarantined.
		return &CorruptBlockError{Path: "store", Reason: "all blocks quarantined"}
	}
	for i, quota := range quotas {
		if quota == 0 {
			continue
		}
		if err := SampleChunks(s.blocks[i], r, quota, fn); err != nil {
			return err
		}
	}
	return nil
}

// Close releases resources held by the store's blocks: every block
// implementing io.Closer (file-backed and memory-mapped blocks) is closed.
// Every block is attempted even when one fails; the first error wins.
// Closing an already-closed store is a no-op returning nil — the built-in
// blocks' Close methods are idempotent. Closing a View is a no-op: its
// blocks belong to the store it was cut from.
func (s *Store) Close() error {
	if s.view {
		return nil
	}
	var first error
	for _, b := range s.blocks {
		if c, ok := b.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Partition splits data into b contiguous, near-equal in-memory blocks —
// the "data are evenly divided into b parts" setup of the paper's
// experiments. It panics if b <= 0.
func Partition(data []float64, b int) *Store {
	if b <= 0 {
		panic("block: partition count must be positive")
	}
	blocks := make([]Block, 0, b)
	n := len(data)
	for i := 0; i < b; i++ {
		lo := i * n / b
		hi := (i + 1) * n / b
		blocks = append(blocks, NewMemBlock(i, data[lo:hi]))
	}
	return NewStore(blocks...)
}
