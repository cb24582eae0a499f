package block

import (
	"sync"

	"isla/internal/stats"
)

// ChunkSize is the number of values serviced per batched sampling chunk:
// large enough to amortize interface dispatch and RNG state round-trips —
// and, for file blocks, to keep sorted draw offsets dense enough that
// coalesced reads pay off — while a chunk of float64s (128 KiB) still fits
// in L2.
const ChunkSize = 16384

// SampleInto fills dst with uniform with-replacement draws from b, in draw
// order — the function form of the block's one sampling method.
func SampleInto(b Block, r *stats.RNG, dst []float64) error { return b.SampleInto(r, dst) }

// chunkPool recycles sampling buffers across SampleChunks calls, so
// steady-state sampling does no per-block allocations: each worker
// goroutine checks a chunk out for the duration of one block's draw.
var chunkPool = sync.Pool{
	New: func() any {
		buf := make([]float64, ChunkSize)
		return &buf
	},
}

// SampleChunks draws m values from b and delivers them chunk-at-a-time
// through fn, in draw order, using a pooled buffer. The chunk slice is
// reused between calls — fn must not retain it.
func SampleChunks(b Block, r *stats.RNG, m int64, fn func(vs []float64) error) error {
	if m <= 0 {
		return nil
	}
	bufp := chunkPool.Get().(*[]float64)
	defer chunkPool.Put(bufp)
	buf := *bufp
	for m > 0 {
		k := int64(len(buf))
		if k > m {
			k = m
		}
		chunk := buf[:k]
		if err := b.SampleInto(r, chunk); err != nil {
			return err
		}
		if err := fn(chunk); err != nil {
			return err
		}
		m -= k
	}
	return nil
}

// idxPool recycles index buffers for the in-memory gather path; a pooled
// buffer beats a stack array here because tiny draws (pilot probes with
// quota 1) must not pay a ChunkSize-sized zeroing.
var idxPool = sync.Pool{
	New: func() any {
		buf := make([]int64, ChunkSize)
		return &buf
	},
}

// SampleInto implements Block by bulk-generating indices and gathering
// straight from the backing slice.
func (b *MemBlock) SampleInto(r *stats.RNG, dst []float64) error {
	if len(b.data) == 0 {
		if len(dst) == 0 {
			return nil
		}
		return ErrEmptyBlock
	}
	return sampleIntoSlice(b.data, r, dst)
}

// sampleIntoSlice is the shared slice-gather kernel behind the in-memory
// and memory-mapped batched paths: chunked bulk index generation, then a
// direct gather from data. data must be non-empty. The RNG stream matches
// a scalar Int63n loop exactly.
func sampleIntoSlice(data []float64, r *stats.RNG, dst []float64) error {
	n := int64(len(data))
	idxp := idxPool.Get().(*[]int64)
	defer idxPool.Put(idxp)
	for len(dst) > 0 {
		k := len(dst)
		if k > ChunkSize {
			k = ChunkSize
		}
		idx := (*idxp)[:k]
		r.FillInt63n(idx, n)
		for i, j := range idx {
			dst[i] = data[j]
		}
		dst = dst[k:]
	}
	return nil
}

// MomentsSink adapts a Moments accumulator to a SampleChunks /
// PilotSampleChunks chunk function — the common fold of every pilot draw.
func MomentsSink(m *stats.Moments) func(vs []float64) error {
	return func(vs []float64) error {
		m.AddSlice(vs)
		return nil
	}
}
