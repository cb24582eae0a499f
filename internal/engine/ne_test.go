package engine

import (
	"math"
	"testing"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/stats"
)

// neData is a column of 200 000 integer-valued rows, so that v <> 100
// actually rejects (about 2 % of them).
func neData() []float64 {
	r := stats.NewRNG(7)
	data := make([]float64, 200_000)
	for i := range data {
		data[i] = math.Round(100 + 20*r.NormFloat64())
	}
	return data
}

// TestNotEqualExactMatchesScan: METHOD EXACT under <> is the scan under the
// full predicate, never the interval alone — and <> follows the dialect's
// NaN rule: a NaN row satisfies no comparison, so it is neither counted nor
// summed (Go's != would let it through and poison the SUM).
func TestNotEqualExactMatchesScan(t *testing.T) {
	data := neData()
	data[12345] = math.NaN()
	var n int64
	var sum float64
	for _, v := range data {
		if v > 90 && v < 100 || v > 100 {
			n++
			sum += v
		}
	}
	cat := NewCatalog()
	cat.Register("t", block.Partition(data, 8))
	e := New(cat)
	for sql, want := range map[string]float64{
		"SELECT COUNT(*) FROM t WHERE v > 90 AND v <> 100 METHOD EXACT": float64(n),
		"SELECT SUM(v) FROM t WHERE v > 90 AND v <> 100 METHOD EXACT":   sum,
		"SELECT AVG(v) FROM t WHERE v > 90 AND v <> 100 METHOD EXACT":   sum / float64(n),
	} {
		res, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want {
			t.Fatalf("%s = %v, scan oracle %v", sql, res.Value, want)
		}
	}
	// The bare <> over the NaN row: the parent returned SUM = NaN here and
	// counted the row.
	sumNE, err := e.ExecuteSQL("SELECT SUM(v) FROM t WHERE v <> 100 METHOD EXACT")
	if err != nil {
		t.Fatal(err)
	}
	cntNE, err := e.ExecuteSQL("SELECT COUNT(*) FROM t WHERE v <> 100 METHOD EXACT")
	if err != nil {
		t.Fatal(err)
	}
	cntGT, err := e.ExecuteSQL("SELECT COUNT(*) FROM t WHERE v > 100 METHOD EXACT")
	if err != nil {
		t.Fatal(err)
	}
	cntLT, err := e.ExecuteSQL("SELECT COUNT(*) FROM t WHERE v < 100 METHOD EXACT")
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(sumNE.Value) || cntNE.Value != cntGT.Value+cntLT.Value {
		t.Fatalf("NaN row leaked through <>: SUM = %v, COUNT = %v, want %v", sumNE.Value, cntNE.Value, cntGT.Value+cntLT.Value)
	}
}

// TestNotEqualPruning: on the sorted file store a <> conjunct keeps zone-map
// pruning — blocks outside the bounds are skipped, and a block the bounds
// contain samples unfiltered only when 100 cannot occur in it — without
// moving a bit against the summary-less in-memory copy of the same blocks.
func TestNotEqualPruning(t *testing.T) {
	const sql = "SELECT AVG(v) FROM sorted WHERE v >= 95 AND v <= 105 AND v <> 100 WITH PRECISION 0.5 SEED 3"
	modes := []block.OpenMode{block.ModePread}
	if block.MmapSupported() {
		modes = append(modes, block.ModeMmap)
	}
	for _, mode := range modes {
		e := prunedEngine(t, mode)
		pruned, err := e.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Filter.PrunedBlocks == 0 || pruned.Filter.Drawn >= pruned.Filter.Planned {
			t.Fatalf("mode=%v: filter info %+v — zone maps not engaged under <>", mode, pruned.Filter)
		}

		tbl, _ := e.Catalog.Lookup("sorted")
		cat := NewCatalog()
		cat.Register("sorted", memCopy(t, tbl.Store))
		plain, err := New(cat).ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Filter.PrunedBlocks != 0 || plain.Filter.Drawn != plain.Filter.Planned {
			t.Fatalf("mode=%v: the summary-less copy pruned: %+v", mode, plain.Filter)
		}
		if pruned.Value != plain.Value || *pruned.CI != *plain.CI || pruned.Filter.Accepted != plain.Filter.Accepted {
			t.Fatalf("mode=%v: pruning under <> moved the answer: %v (%+v) vs %v (%+v)",
				mode, pruned.Value, pruned.Filter, plain.Value, plain.Filter)
		}
		n, sum, err := core.ExactFiltered(tbl.Store, func(v float64) bool { return v >= 95 && v <= 105 && v != 100 })
		if err != nil {
			t.Fatal(err)
		}
		if exact := sum / float64(n); math.Abs(pruned.Value-exact) > 3*pruned.CI.HalfWidth {
			t.Fatalf("mode=%v: pruned estimate %v vs exact %v (CI %+v)", mode, pruned.Value, exact, pruned.CI)
		}
	}
}
