//go:build !race

package group

import (
	"runtime"
	"testing"
)

// TestPartitionAllocations bounds what partitioning 100 000 rows of four
// keys allocates. Interleaved keys take the value array (8 bytes a row) and
// a group number per row (4 bytes), in no more allocations than the
// two-pass grouping made (11); contiguous keys skip the group numbers.
// The race detector allocates, hence the build tag.
func TestPartitionAllocations(t *testing.T) {
	const n = 100_000
	const perKeyBytes = 8 << 10 // map, spans, keys and group slices
	keys := []string{"east", "north", "south", "west"}
	for _, c := range []struct {
		name        string
		interleaved bool
		bytesPerRow uint64
		allocs      float64
	}{
		{"contiguous", false, 8, 11},
		{"interleaved", true, 12, 11},
	} {
		rows := make([]Row, n)
		for i := range rows {
			k := i * len(keys) / n
			if c.interleaved {
				k = i % len(keys)
			}
			rows[i] = Row{keys[k], float64(i)}
		}
		partitionRows := func() {
			if _, _, err := partition(rows, 4); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(5, partitionRows); got > c.allocs {
			t.Errorf("%s: %v allocations, want at most %v", c.name, got, c.allocs)
		}
		bytes := ^uint64(0) // the least of five runs
		for run := 0; run < 5; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			partitionRows()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := c.bytesPerRow*n + perKeyBytes; bytes > limit {
			t.Errorf("%s: %d bytes, want at most %d (%d a row)", c.name, bytes, limit, c.bytesPerRow)
		}
	}
}
