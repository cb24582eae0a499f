package engine

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"testing"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/stats"
)

// TestContradictionShortCircuit: a WHERE conjunction that provably matches
// nothing is decided at compile time — COUNT answers an exact zero, AVG
// and SUM report no match, and not one sample is drawn.
func TestContradictionShortCircuit(t *testing.T) {
	e, _ := testEngine(t)
	pc := e.EnablePlanCache(0)

	cnt, err := e.ExecuteSQL("SELECT COUNT(*) FROM sales WHERE v > 5 AND v < 3 WITH PRECISION 0.5 SEED 4")
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Value != 0 || cnt.CI != nil || cnt.Samples != 0 {
		t.Fatalf("contradictory COUNT: value=%v ci=%v samples=%d, want exact 0 with no draws",
			cnt.Value, cnt.CI, cnt.Samples)
	}
	if cnt.Filter == nil || cnt.Filter.Drawn != 0 || cnt.Filter.Planned != 0 {
		t.Fatalf("contradictory COUNT filter info = %+v, want zero draws", cnt.Filter)
	}
	for _, sql := range []string{
		"SELECT AVG(v) FROM sales WHERE v > 5 AND v < 3 WITH PRECISION 0.5 SEED 4",
		"SELECT SUM(v) FROM sales WHERE v = 1 AND v = 2 WITH PRECISION 0.5 SEED 4",
	} {
		if _, err := e.ExecuteSQL(sql); !errors.Is(err, core.ErrNoMatch) {
			t.Fatalf("%s: err = %v, want ErrNoMatch", sql, err)
		}
	}
	// The short circuit happens before the plan cache: no pilot was built.
	if st := pc.Stats(); st.Misses != 0 {
		t.Fatalf("contradictory queries built %d pilots", st.Misses)
	}
}

// prunedEngine registers a table of range-partitioned ISLB v2 files, so an
// interval predicate sees disjoint, contained and straddling blocks with
// persisted summaries in both open modes.
func prunedEngine(t *testing.T, mode block.OpenMode) *Engine {
	t.Helper()
	r := stats.NewRNG(9)
	d := stats.Normal{Mu: 100, Sigma: 20}
	data := make([]float64, 120_000)
	for i := range data {
		data[i] = d.Sample(r)
	}
	sort.Float64s(data)
	dir := t.TempDir()
	const nblocks = 12
	blocks := make([]block.Block, nblocks)
	for i := range blocks {
		part := data[i*len(data)/nblocks : (i+1)*len(data)/nblocks]
		path := filepath.Join(dir, fmt.Sprintf("v.%03d", i))
		if err := block.WriteFile(path, part); err != nil {
			t.Fatal(err)
		}
		b, err := block.Open(i, path, mode)
		if err != nil {
			t.Fatal(err)
		}
		blocks[i] = b
	}
	cat := NewCatalog()
	cat.Register("sorted", block.NewStore(blocks...))
	return New(cat)
}

// memCopy is a summary-less in-memory store over the same blocks' values, so
// it never prunes: the reference a pruned run must match bit for bit.
func memCopy(t *testing.T, s *block.Store) *block.Store {
	t.Helper()
	mem := make([]block.Block, s.NumBlocks())
	for i, b := range s.Blocks() {
		var part []float64
		if err := b.Scan(func(v float64) error { part = append(part, v); return nil }); err != nil {
			t.Fatal(err)
		}
		mem[i] = block.NewMemBlock(i, part)
	}
	return block.NewStore(mem...)
}

// TestFilteredPruningThroughEngine: on range-partitioned v2 files the
// engine surfaces the zone-map work (pruned and contained block counts,
// planned vs physical draws) and the answer equals, bit for bit, the one
// the summary-less in-memory copy gives without pruning.
func TestFilteredPruningThroughEngine(t *testing.T) {
	modes := []block.OpenMode{block.ModePread}
	if block.MmapSupported() {
		modes = append(modes, block.ModeMmap)
	}
	const sql = "SELECT AVG(v) FROM sorted WHERE v >= 95 AND v <= 105 WITH PRECISION 0.5 SEED 3"
	var answers []Result
	for _, mode := range modes {
		e := prunedEngine(t, mode)
		pruned, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Filter == nil || pruned.Filter.PrunedBlocks == 0 || pruned.Filter.ContainedBlocks == 0 {
			t.Fatalf("mode=%v: filter info %+v — zone maps not engaged", mode, pruned.Filter)
		}
		if pruned.Filter.Drawn >= pruned.Filter.Planned {
			t.Fatalf("mode=%v: drew %d of %d planned — pruning saved nothing",
				mode, pruned.Filter.Drawn, pruned.Filter.Planned)
		}

		// The summary-less in-memory copy of the same blocks never prunes.
		tbl, _ := e.Catalog.Lookup("sorted")
		cat := NewCatalog()
		cat.Register("sorted", memCopy(t, tbl.Store))
		full, err := New(cat).ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if full.Value != pruned.Value || *full.CI != *pruned.CI {
			t.Fatalf("mode=%v: pruning changed the answer: %v (%+v) vs %v (%+v)",
				mode, pruned.Value, pruned.CI, full.Value, full.CI)
		}
		if full.Filter.PrunedBlocks != 0 || full.Filter.Drawn != full.Filter.Planned {
			t.Fatalf("mode=%v: the summary-less copy pruned: %+v", mode, full.Filter)
		}
		answers = append(answers, pruned)
	}
	// Same answer bits across open modes.
	for _, res := range answers[1:] {
		if res.Value != answers[0].Value || *res.CI != *answers[0].CI {
			t.Fatalf("answers differ across open modes: %+v vs %+v", res, answers[0])
		}
	}
	// Sanity: the estimate brackets the exact filtered mean.
	e := prunedEngine(t, block.ModePread)
	tbl, _ := e.Catalog.Lookup("sorted")
	n, sum, err := core.ExactFiltered(tbl.Store, func(v float64) bool { return v >= 95 && v <= 105 })
	if err != nil {
		t.Fatal(err)
	}
	exact := sum / float64(n)
	if math.Abs(answers[0].Value-exact) > 3*answers[0].CI.HalfWidth {
		t.Fatalf("pruned estimate %v vs exact %v (CI %+v)", answers[0].Value, exact, answers[0].CI)
	}
}

// TestNoMatchCountKeepsItsAccounting: a filtered COUNT whose pilot finds no
// matching row answers zero and still reports the pilot's work — the draws it
// planned, the draws it serviced and the blocks its zone map pruned.
func TestNoMatchCountKeepsItsAccounting(t *testing.T) {
	data := make([]float64, 4000)
	for i := range data {
		data[i] = float64(i % 1000) // every block holds 0–999
	}
	s, err := block.WritePartitionedMode(filepath.Join(t.TempDir(), "t"), data, 4, block.ModePread)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	cat := NewCatalog()
	cat.Register("t", s)
	res, err := New(cat).ExecuteSQL("SELECT COUNT(*) FROM t WHERE v > 5000 WITH PRECISION 0.5 SEED 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 || res.Samples != 0 {
		t.Fatalf("COUNT = %v from %d samples, want 0 from none", res.Value, res.Samples)
	}
	if f := res.Filter; f == nil || f.Planned != 1000 || f.Drawn != 0 || f.Accepted != 0 || f.PrunedBlocks != 4 {
		t.Fatalf("filter = %+v, want 1000 planned, 0 drawn, 4 pruned blocks", f)
	}
}
