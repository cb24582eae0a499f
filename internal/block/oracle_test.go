package block

import "isla/internal/stats"

// Test-only oracles: the scalar sampler and the post-gather predicate filter
// the production kernels are pinned against. Neither exists outside tests —
// every block answers through SampleInto and every filter through the fused
// interval kernel.

// scalarOracle is a block's values, read once through Scan.
type scalarOracle []float64

func oracleOf(b Block) (scalarOracle, error) {
	data := make(scalarOracle, 0, b.Len())
	err := b.Scan(func(v float64) error { data = append(data, v); return nil })
	return data, err
}

// sample is the scalar sampling loop: one r.Int63n(Len()) per draw, each
// value handed to fn — the stream every SampleInto must reproduce.
func (o scalarOracle) sample(r *stats.RNG, m int64, fn func(v float64)) error {
	n := int64(len(o))
	if n == 0 {
		if m == 0 {
			return nil
		}
		return ErrEmptyBlock
	}
	for i := int64(0); i < m; i++ {
		fn(o[r.Int63n(n)])
	}
	return nil
}

// scalarSample runs the scalar oracle over b.
func scalarSample(b Block, r *stats.RNG, m int64, fn func(v float64)) error {
	o, err := oracleOf(b)
	if err != nil {
		return err
	}
	return o.sample(r, m, fn)
}

// filterChunk compacts vs in place to the values passing pred, preserving
// draw order, and returns the kept prefix.
func filterChunk(vs []float64, pred func(float64) bool) []float64 {
	k := 0
	for _, v := range vs {
		if pred(v) {
			vs[k] = v
			k++
		}
	}
	return vs[:k]
}

// sampleFilteredChunks is the post-gather oracle of the fused kernel: gather
// a chunk unfiltered, then reject through the closure.
func sampleFilteredChunks(b Block, r *stats.RNG, m int64, pred func(float64) bool, fn func(vs []float64) error) (int64, error) {
	var accepted int64
	err := SampleChunks(b, r, m, func(vs []float64) error {
		kept := filterChunk(vs, pred)
		accepted += int64(len(kept))
		if len(kept) == 0 {
			return nil
		}
		return fn(kept)
	})
	return accepted, err
}

// sampleEach draws m values from b on the production path and passes each to
// fn: the per-value view the behavioural tests read.
func sampleEach(b Block, r *stats.RNG, m int64, fn func(v float64)) error {
	return SampleChunks(b, r, m, eachValue(fn))
}

func eachValue(fn func(v float64)) func(vs []float64) error {
	return func(vs []float64) error {
		for _, v := range vs {
			fn(v)
		}
		return nil
	}
}
