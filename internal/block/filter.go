package block

import (
	"unsafe"

	"isla/internal/stats"
)

// SampleFilteredIntervalChunks draws m raw values from b — the same RNG
// stream as SampleChunks(b, r, m, …), so a filtered run consumes exactly the
// stream of an unfiltered run with the same raw draw count — and delivers
// those inside the closed interval [lo, hi], chunk-at-a-time in draw order,
// returning the accepted count. Every block kind is serviced the same way:
// gather a chunk through the block's SampleInto, then select in place.
func SampleFilteredIntervalChunks(b Block, r *stats.RNG, m int64, lo, hi float64, fn func(vs []float64) error) (int64, error) {
	var accepted int64
	err := SampleChunks(b, r, m, func(vs []float64) error {
		k := selectInterval(vs, lo, hi)
		accepted += int64(k)
		if k == 0 {
			return nil
		}
		return fn(vs[:k])
	})
	return accepted, err
}

// selectInterval compacts vs in place to the values v with lo <= v && v <=
// hi, in order, and returns their count. The select is branchless — an
// unconditional store with a data-dependent cursor bump — because on a
// central interval over bell-shaped data each bound test is a coin flip
// whatever the interval's selectivity, and a mispredicted branch costs more
// than the store. Each comparison is materialized as a byte (SETcc) and the
// bytes are AND-ed: no short-circuit &&, no conditional jump. NaN rejects,
// since lo <= NaN is false.
//
// The select runs after the gather, not inside it: a fused loop's store
// goes to an address that depends on the value just loaded, so once a
// block has left L2 its random loads stop overlapping. Gathering the chunk
// first keeps the loads independent and leaves the select on an L2-resident
// chunk.
func selectInterval(vs []float64, lo, hi float64) int {
	k := 0
	for _, v := range vs {
		vs[k] = v
		a := lo <= v
		c := v <= hi
		k += int(*(*byte)(unsafe.Pointer(&a)) & *(*byte)(unsafe.Pointer(&c)))
	}
	return k
}
