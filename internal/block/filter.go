package block

import (
	"unsafe"

	"isla/internal/stats"
)

// intervalSampler is the fused filtered-gather capability: blocks that can
// draw raw values and reject those outside a closed interval inside the
// gather loop itself, so rejected draws never round-trip through a chunk
// buffer. Both slice-backed built-in blocks (MemBlock, MmapBlock)
// implement it; everything else is served by the post-gather fallback in
// SampleFilteredIntervalChunks.
type intervalSampler interface {
	Block
	// SampleFilteredInterval draws m raw values — consuming exactly the
	// RNG stream of SampleChunks(b, r, m, …) — and delivers the values v
	// with lo <= v && v <= hi chunk-at-a-time in draw order through fn,
	// returning the accepted count.
	SampleFilteredInterval(r *stats.RNG, m int64, lo, hi float64, fn func(vs []float64) error) (int64, error)
}

// SampleFilteredIntervalChunks draws m raw values from b — the same RNG
// stream as SampleChunks(b, r, m, …), so a filtered run consumes exactly the
// stream of an unfiltered run with the same raw draw count — and delivers
// those inside the closed interval [lo, hi], chunk-at-a-time in draw order,
// returning the accepted count. Only the servicing differs by block:
// slice-backed blocks run the fused gather kernel (compare-and-select inside
// the gather loop, rejected draws never leave registers), other blocks
// gather a chunk and compact it with the inline interval test.
func SampleFilteredIntervalChunks(b Block, r *stats.RNG, m int64, lo, hi float64, fn func(vs []float64) error) (int64, error) {
	if is, ok := b.(intervalSampler); ok {
		return is.SampleFilteredInterval(r, m, lo, hi, fn)
	}
	var accepted int64
	err := SampleChunks(b, r, m, func(vs []float64) error {
		k := 0
		for _, v := range vs {
			if lo <= v && v <= hi {
				vs[k] = v
				k++
			}
		}
		accepted += int64(k)
		if k == 0 {
			return nil
		}
		return fn(vs[:k])
	})
	return accepted, err
}

// SampleFilteredInterval implements intervalSampler with the fused kernel.
func (b *MemBlock) SampleFilteredInterval(r *stats.RNG, m int64, lo, hi float64, fn func(vs []float64) error) (int64, error) {
	if len(b.data) == 0 {
		if m <= 0 {
			return 0, nil
		}
		return 0, ErrEmptyBlock
	}
	return sampleFilteredIntervalSlice(b.data, r, m, lo, hi, fn)
}

// SampleFilteredInterval implements intervalSampler with the fused kernel
// over the mapping — filtered mmap draws cost what filtered RAM draws cost.
func (b *MmapBlock) SampleFilteredInterval(r *stats.RNG, m int64, lo, hi float64, fn func(vs []float64) error) (int64, error) {
	if b.n == 0 {
		if m <= 0 {
			return 0, nil
		}
		return 0, ErrEmptyBlock
	}
	if err := b.acquire(); err != nil {
		return 0, err
	}
	defer b.release()
	return sampleFilteredIntervalSlice(b.data, r, m, lo, hi, fn)
}

// sampleFilteredIntervalSlice is the fused filtered gather kernel shared
// by the in-memory and memory-mapped paths: per chunk, bulk-generate the
// index stream (the same FillInt63n discipline as sampleIntoSlice — raw
// draw count and post-call RNG state match the unfiltered kernel exactly),
// then gather, compare and select in one pass. The select is branchless —
// an unconditional store with a data-dependent cursor bump — so rejected
// values are overwritten in place instead of compacted by a second pass.
// Branchlessness is load-bearing, not cosmetic: on a central interval over
// bell-shaped data each individual bound test is a coin flip regardless of
// the interval's overall selectivity (at 1% selectivity around the mode,
// lo <= v still splits ~50/50), and a mispredicted branch flushes the
// outstanding random loads the out-of-order core was overlapping. Each
// comparison is therefore materialized separately as a byte (SETcc) and
// the bytes are AND-ed — no short-circuit &&, no conditional increment,
// no branch for the predictor to lose. NaN draws still reject: lo <= NaN
// is false. The gather reads through a raw base pointer: FillInt63n
// guarantees every index lies in [0, n), so the per-element bounds check
// (which the compiler cannot eliminate for data-dependent indices) is
// dropped for the whole chunk rather than paid per draw. data must be
// non-empty; keeping the RNG dependency chain in its own FillInt63n loop
// (instead of interleaving it with the gather) is what lets the
// out-of-order core overlap the random loads — the interleaved variant
// measured 2× slower.
func sampleFilteredIntervalSlice(data []float64, r *stats.RNG, m int64, lo, hi float64, fn func(vs []float64) error) (int64, error) {
	n := int64(len(data))
	idxp := idxPool.Get().(*[]int64)
	defer idxPool.Put(idxp)
	bufp := chunkPool.Get().(*[]float64)
	defer chunkPool.Put(bufp)
	base := unsafe.Pointer(&data[0])
	var accepted int64
	for m > 0 {
		k := int64(ChunkSize)
		if k > m {
			k = m
		}
		idx := (*idxp)[:k]
		r.FillInt63n(idx, n)
		buf := (*bufp)[:k]
		kept := 0
		for _, j := range idx {
			v := *(*float64)(unsafe.Add(base, uintptr(j)*8))
			buf[kept] = v
			a := lo <= v
			c := v <= hi
			kept += int(*(*byte)(unsafe.Pointer(&a)) & *(*byte)(unsafe.Pointer(&c)))
		}
		accepted += int64(kept)
		if kept > 0 {
			if err := fn(buf[:kept]); err != nil {
				return accepted, err
			}
		}
		m -= k
	}
	return accepted, nil
}
