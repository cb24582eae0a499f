package isla

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"isla/internal/stats"
)

func TestTimeBoundFacade(t *testing.T) {
	s := Partition(normalData(300000, 11), 10)
	cfg := DefaultConfig()
	cfg.Seed = 3
	res, err := EstimateTimeBound(s, cfg, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.AchievedPrecision <= 0 {
		t.Fatal("no achieved precision")
	}
	if math.Abs(res.Estimate-100) > 5*res.AchievedPrecision {
		t.Fatalf("estimate %v beyond achieved precision band", res.Estimate)
	}
}

func TestQueryTimeBudget(t *testing.T) {
	db := NewDB()
	db.RegisterSlice("t", normalData(200000, 12), 10)
	res, err := db.Query("SELECT AVG(v) FROM t WITH TIME 0.1 SEED 4")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-100) > 3 {
		t.Fatalf("time-budget avg = %v", res.Value)
	}
	if res.CI == nil || res.CI.HalfWidth <= 0 {
		t.Fatal("missing derived CI")
	}
	// TIME with a non-ISLA method is rejected at parse time.
	if _, err := db.Query("SELECT AVG(v) FROM t WITH TIME 0.1 METHOD US"); err == nil {
		t.Fatal("TIME with US accepted")
	}
}

func TestClusterFacade(t *testing.T) {
	s := Partition(normalData(200000, 13), 6)
	w := NewWorker(s.Blocks()...)
	l, err := w.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	man, err := ShardManifestFromWorkers([]string{l.Addr().String()}, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	st, err := OpenShardTable(man, db.BaseConfig(), ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	db.RegisterSharded("t", st)
	res, err := db.Query("SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 5")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-100) > 1.5 {
		t.Fatalf("cluster estimate = %v", res.Value)
	}
}

func TestGroupAVGFacade(t *testing.T) {
	r := stats.NewRNG(14)
	rows := make([]GroupRow, 0, 60000)
	for i := 0; i < 30000; i++ {
		rows = append(rows, GroupRow{Group: "a", Value: 100 + 20*r.NormFloat64()})
		rows = append(rows, GroupRow{Group: "b", Value: 50 + 10*r.NormFloat64()})
	}
	db := NewDB()
	if err := db.RegisterGroupedRows("t", "g", rows, 5); err != nil {
		t.Fatal(err)
	}
	out, err := db.Query("SELECT AVG(v) FROM t GROUP BY g WITH PRECISION 1 SEED 6")
	if err != nil {
		t.Fatal(err)
	}
	var res []GroupResult = out.Groups // one grouped result type
	if len(res) != 2 || res[0].Group != "a" || res[1].Group != "b" {
		t.Fatalf("res = %v", res)
	}
	if math.Abs(res[0].Value-100) > 2 || math.Abs(res[1].Value-50) > 2 {
		t.Fatalf("group estimates = %v, %v", res[0].Value, res[1].Value)
	}
}

func TestLoadTextFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vals.txt")
	if err := os.WriteFile(path, []byte("1\n2\n3\nnot-a-number\n4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadText(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalLen() != 4 {
		t.Fatalf("len = %d (invalid line should be skipped)", s.TotalLen())
	}
	mean, _ := s.ExactMean()
	if mean != 2.5 {
		t.Fatalf("mean = %v", mean)
	}
}

func TestLoadCSVFacade(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(path, []byte("id,price\n1,10\n2,30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadCSV(path, "price", 1)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := s.ExactMean()
	if mean != 20 {
		t.Fatalf("mean = %v", mean)
	}
	if _, err := LoadCSV(path, "missing", 1); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestGroupedQueryFacade(t *testing.T) {
	r := stats.NewRNG(21)
	rows := make([]GroupRow, 0, 90000)
	for i := 0; i < 30000; i++ {
		rows = append(rows, GroupRow{Group: "a", Value: 100 + 20*r.NormFloat64()})
		rows = append(rows, GroupRow{Group: "b", Value: 50 + 10*r.NormFloat64()})
		rows = append(rows, GroupRow{Group: "c", Value: 200 + 40*r.NormFloat64()})
	}
	db := NewDB()
	if err := db.RegisterGroupedRows("sales", "region", rows, 6); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT AVG(v) FROM sales WHERE v > 40 GROUP BY region WITH PRECISION 0.5 SEED 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %+v", res.Groups)
	}
	for _, gr := range res.Groups {
		if gr.Err != "" {
			t.Fatalf("group %s: %s", gr.Group, gr.Err)
		}
		if gr.CI == nil || gr.Filter == nil {
			t.Fatalf("group %s missing diagnostics: %+v", gr.Group, gr)
		}
	}
	// Ungrouped statements aggregate the combined view.
	all, err := db.Query("SELECT COUNT(*) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if all.Value != 90000 {
		t.Fatalf("combined count = %v", all.Value)
	}
	// SUM and COUNT answer per group through the same statement shape.
	sums, err := db.Query("SELECT SUM(v) FROM sales GROUP BY region WITH PRECISION 1 SEED 4")
	if err != nil {
		t.Fatal(err)
	}
	counts, err := db.Query("SELECT COUNT(*) FROM sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	for i := range sums.Groups {
		if c := counts.Groups[i]; c.Value != 30000 || !c.Exact {
			t.Fatalf("count = %+v", c)
		}
		if s := sums.Groups[i]; s.Err != "" || s.Value <= 0 || s.CI == nil {
			t.Fatalf("sum = %+v", s)
		}
	}
}

// TestGroupFilesFacade: WriteGroupFiles → OpenGroupManifest → grouped
// queries on the file-backed store, in both open modes, bit-identical to
// the in-memory registration.
func TestGroupFilesFacade(t *testing.T) {
	r := stats.NewRNG(31)
	rows := make([]GroupRow, 0, 40000)
	for i := 0; i < 20000; i++ {
		rows = append(rows, GroupRow{Group: "x", Value: 100 + 20*r.NormFloat64()})
		rows = append(rows, GroupRow{Group: "y", Value: 10 + 2*r.NormFloat64()})
	}
	memDB := NewDB()
	if err := memDB.RegisterGroupedRows("t", "g", rows, 4); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT AVG(v) FROM t GROUP BY g WITH PRECISION 0.5 SEED 7"
	want, err := memDB.Query(sql)
	if err != nil {
		t.Fatal(err)
	}

	man, err := WriteGroupFiles(t.TempDir(), "g", rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []OpenMode{ModePread, ModeMmap} {
		g, err := OpenGroupManifest(man, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		db := NewDB()
		db.RegisterGrouped("t", g)
		got, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for i := range want.Groups {
			if got.Groups[i].Value != want.Groups[i].Value || got.Groups[i].Samples != want.Groups[i].Samples {
				t.Errorf("%v group %s: %v/%d != mem %v/%d", mode, got.Groups[i].Group,
					got.Groups[i].Value, got.Groups[i].Samples,
					want.Groups[i].Value, want.Groups[i].Samples)
			}
		}
		if err := g.Close(); err != nil {
			t.Fatalf("%v: close: %v", mode, err)
		}
	}
}
