package isla

// End-to-end integration tests crossing every layer: data generation →
// binary block files on disk → catalog → the query dialect — asserting the
// answers agree with the exact scan. That the execution modes (plain,
// parallel, cluster, online, time-bound) agree with each other bit for bit
// is the invariance matrix's (invariance_test.go).

import (
	"math"
	"path/filepath"
	"testing"

	"isla/internal/stats"
	"isla/internal/workload"
)

func TestEndToEndFileBackedPipeline(t *testing.T) {
	dir := t.TempDir()

	// 1. Generate and persist a dataset as binary block files.
	data := normalData(400000, 31)
	store, err := WriteFiles(filepath.Join(dir, "sales"), data, 8)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Reopen from disk as a fresh store.
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = filepath.Join(dir, "sales") + "." + padded(i)
	}
	reopened, err := OpenFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.TotalLen() != store.TotalLen() {
		t.Fatalf("reopened %d rows, wrote %d", reopened.TotalLen(), store.TotalLen())
	}

	// 3. Query through the engine.
	db := NewDB()
	db.RegisterStore("sales", reopened)
	exact, err := db.Query("SELECT AVG(v) FROM sales METHOD EXACT")
	if err != nil {
		t.Fatal(err)
	}
	approx, err := db.Query("SELECT AVG(v) FROM sales WITH PRECISION 0.3 SEED 8")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(approx.Value-exact.Value) > 0.6 {
		t.Fatalf("approx %v vs exact %v", approx.Value, exact.Value)
	}

	// 4. SUM and COUNT must be mutually consistent.
	sum, err := db.Query("SELECT SUM(v) FROM sales WITH PRECISION 0.3 SEED 8")
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := db.Query("SELECT COUNT(*) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Value/cnt.Value-approx.Value) > 1e-9 {
		t.Fatal("SUM/COUNT inconsistent with AVG")
	}
}

func padded(i int) string {
	return string([]byte{'0', '0', byte('0' + i)})
}

func TestEndToEndNonIIDQueryPath(t *testing.T) {
	s, truth, err := workload.PaperNonIID(60000, 41)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	cfg.VarianceAwareRates = true
	cfg.Seed = 19

	db := NewDB()
	db.SetBaseConfig(cfg)
	db.RegisterStore("global", s)
	res, err := db.Query("SELECT AVG(v) FROM global WITH PRECISION 0.5 SEED 19")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-truth) > 2*cfg.Precision {
		t.Fatalf("non-iid query %v vs truth %v", res.Value, truth)
	}
}

func TestEndToEndGroupedWorkload(t *testing.T) {
	// Group rows generated from distinct distributions; grouped AVG must
	// recover each group's mean through the public API.
	r := stats.NewRNG(47)
	var rows []GroupRow
	groups := map[string]stats.Normal{
		"retail":    {Mu: 120, Sigma: 25},
		"wholesale": {Mu: 80, Sigma: 10},
	}
	for name, d := range groups {
		for i := 0; i < 60000; i++ {
			rows = append(rows, GroupRow{Group: name, Value: d.Sample(r)})
		}
	}
	db := NewDB()
	if err := db.RegisterGroupedRows("orders", "channel", rows, 6); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT AVG(v) FROM orders GROUP BY channel WITH PRECISION 1 SEED 23")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != len(groups) {
		t.Fatalf("groups = %+v", res.Groups)
	}
	for _, gr := range res.Groups {
		want := groups[gr.Group].Mu
		if gr.Err != "" || math.Abs(gr.Value-want) > 2 {
			t.Errorf("group %s: %v vs %v (%s)", gr.Group, gr.Value, want, gr.Err)
		}
	}
}
