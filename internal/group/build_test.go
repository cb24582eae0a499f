package group

import (
	"fmt"
	"math"
	"testing"

	"isla/internal/block"
	"isla/internal/stats"
)

// oracleBlocks is the grouping as BuildColumn and WriteFiles each used to do
// it — one slice per key, grown row by row through the map — cut into
// blocks at block.Partition's boundaries.
func oracleBlocks(rows []Row, blocks int) map[string][][]float64 {
	byGroup := map[string][]float64{}
	for _, r := range rows {
		byGroup[r.Group] = append(byGroup[r.Group], r.Value)
	}
	out := map[string][][]float64{}
	for k, vals := range byGroup {
		b := blocks
		if len(vals) < b {
			b = len(vals)
		}
		n := len(vals)
		for i := 0; i < b; i++ {
			out[k] = append(out[k], vals[i*n/b:(i+1)*n/b])
		}
	}
	return out
}

// storeBlocks reads a grouped store back, block by block, checking on the
// way that every group's blocks are the table's, in sorted-key order, each
// carrying its table-wide position as its ID.
func storeBlocks(t *testing.T, g *Store) map[string][][]float64 {
	t.Helper()
	out := map[string][][]float64{}
	next := 0
	for _, k := range g.Groups() {
		s, err := g.Group(k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = [][]float64{}
		for i, b := range s.Blocks() {
			if b.ID() != next || g.Combined().Block(next) != b {
				t.Errorf("group %q: block %d has id %d, want the table's block %d", k, i, b.ID(), next)
			}
			next++
			var vals []float64
			if err := b.Scan(func(v float64) error { vals = append(vals, v); return nil }); err != nil {
				t.Fatal(err)
			}
			out[k] = append(out[k], vals)
		}
	}
	return out
}

func sameBlocks(a, b map[string][][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d groups against %d", len(a), len(b))
	}
	for k, ab := range a {
		bb, ok := b[k]
		if !ok || len(ab) != len(bb) {
			return fmt.Errorf("group %q: %d blocks against %d", k, len(ab), len(bb))
		}
		for i := range ab {
			if len(ab[i]) != len(bb[i]) {
				return fmt.Errorf("group %q block %d: %d values against %d", k, i, len(ab[i]), len(bb[i]))
			}
			for j := range ab[i] {
				if math.Float64bits(ab[i][j]) != math.Float64bits(bb[i][j]) {
					return fmt.Errorf("group %q block %d value %d: %v against %v", k, i, j, ab[i][j], bb[i][j])
				}
			}
		}
	}
	return nil
}

// TestPartitionLayouts: whatever order the rows come in, BuildColumn, and
// WriteFiles read back through OpenManifest, hold block for block what the
// row-by-row grouping held.
func TestPartitionLayouts(t *testing.T) {
	r := stats.NewRNG(7)
	val := func() float64 { return 50 + 10*r.NormFloat64() }
	layouts := map[string][]Row{}
	for _, k := range []string{"a", "b", "", "d"} { // "" is a key like any other
		for i := 0; i < 103; i++ {
			layouts["contiguous"] = append(layouts["contiguous"], Row{k, val()})
		}
	}
	for i := 0; i < 400; i++ {
		layouts["interleaved"] = append(layouts["interleaved"], Row{[]string{"a", "b", "", "d"}[i%4], val()})
		layouts["random runs"] = append(layouts["random runs"], Row{[]string{"x", "y", "z"}[r.Intn(3)], val()})
	}
	for i := 0; i < 50; i++ { // every group a single row
		layouts["single rows"] = append(layouts["single rows"], Row{fmt.Sprint("g", i), val()})
	}
	// One group comes back after others, a one-row group sits between runs,
	// and a key equal in content but not in storage to its neighbour's.
	layouts["returning"] = []Row{{"a", 1}, {"a", 2}, {"solo", 3}, {"b", 4}, {"a", 5}, {string([]byte("a")), 6}, {"b", 7}, {"", 8}, {"b", 9}}
	layouts["one group"] = []Row{{"only", 1}, {"only", math.NaN()}, {"only", math.Inf(-1)}}
	for name, rows := range layouts {
		for _, blocks := range []int{1, 3, 7, 1000} { // 1000: more blocks than any group has rows
			want := oracleBlocks(rows, blocks)
			mem, err := BuildColumn("c", rows, blocks)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, blocks, err)
			}
			if err := sameBlocks(storeBlocks(t, mem), want); err != nil {
				t.Errorf("%s, %d blocks: BuildColumn: %v", name, blocks, err)
			}
			if blocks == 1000 && name != "returning" {
				continue // thousands of one-value files add nothing
			}
			man, err := WriteFiles(t.TempDir(), "c", rows, blocks)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, blocks, err)
			}
			files, err := OpenManifest(man, block.ModeAuto)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, blocks, err)
			}
			if err := sameBlocks(storeBlocks(t, files), want); err != nil {
				t.Errorf("%s, %d blocks: WriteFiles → OpenManifest: %v", name, blocks, err)
			}
			if err := files.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPartitionRefusesNothingToGroup(t *testing.T) {
	if _, _, err := partition(nil, 4); err == nil {
		t.Error("no rows accepted")
	}
	if _, _, err := partition([]Row{{"a", 1}}, 0); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := WriteFiles(t.TempDir(), "c", nil, 4); err == nil {
		t.Error("WriteFiles accepted no rows")
	}
}

// benchRows is a 1 M-row table of four equal groups: one group after the
// other, the way generators and sorted loads produce it, or dealt out row by
// row.
func benchRows(interleaved bool) []Row {
	keys := []string{"east", "north", "south", "west"}
	const n = 1_000_000
	r := stats.NewRNG(1)
	rows := make([]Row, n)
	for i := range rows {
		k := i / (n / len(keys))
		if interleaved {
			k = i % len(keys)
		}
		rows[i] = Row{Group: keys[k], Value: 100 + 20*r.NormFloat64()}
	}
	return rows
}

func BenchmarkBuildColumn(b *testing.B) {
	for _, bc := range []struct {
		name        string
		interleaved bool
	}{{"contiguous", false}, {"interleaved", true}} {
		b.Run(bc.name, func(b *testing.B) {
			rows := benchRows(bc.interleaved)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := BuildColumn("region", rows, 4)
				if err != nil {
					b.Fatal(err)
				}
				if g.Combined().TotalLen() != int64(len(rows)) {
					b.Fatal("rows lost")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rows)), "ns/row")
		})
	}
}
