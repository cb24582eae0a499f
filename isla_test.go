package isla

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"isla/internal/stats"
)

func normalData(n int, seed uint64) []float64 {
	r := stats.NewRNG(seed)
	d := stats.Normal{Mu: 100, Sigma: 20}
	data := make([]float64, n)
	for i := range data {
		data[i] = d.Sample(r)
	}
	return data
}

func TestDBQuickstartFlow(t *testing.T) {
	db := NewDB()
	db.RegisterSlice("sales", normalData(300000, 1), 10)
	if got := db.Tables(); len(got) != 1 || got[0] != "sales" {
		t.Fatalf("tables = %v", got)
	}
	res, err := db.Query("SELECT AVG(v) FROM sales WITH PRECISION 0.5 SEED 2")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-100) > 1.0 {
		t.Fatalf("avg = %v", res.Value)
	}
	if res.CI == nil {
		t.Fatal("missing CI")
	}
	cnt, err := db.Query("SELECT COUNT(*) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Value != 300000 {
		t.Fatalf("count = %v", cnt.Value)
	}
}

func TestDBSetBaseConfig(t *testing.T) {
	db := NewDB()
	db.RegisterSlice("t", normalData(100000, 3), 5)
	cfg := DefaultConfig()
	cfg.Seed = 9
	cfg.SampleFraction = 0.5
	db.SetBaseConfig(cfg)
	// The statement still must carry PRECISION (dialect rule), but the
	// base config's other knobs (seed, sample fraction) apply.
	res, err := db.Query("SELECT AVG(v) FROM t WITH PRECISION 1")
	if err != nil {
		t.Fatal(err)
	}
	full := DefaultConfig()
	full.Seed = 9
	db.SetBaseConfig(full)
	res2, err := db.Query("SELECT AVG(v) FROM t WITH PRECISION 1")
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.Samples) / float64(res2.Samples)
	if math.Abs(ratio-0.5) > 0.05 {
		t.Fatalf("base-config sample fraction not honored: ratio %v", ratio)
	}
}

func TestEstimateFacade(t *testing.T) {
	s := Partition(normalData(300000, 4), 10)
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	res, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-100) > 1.0 {
		t.Fatalf("estimate = %v", res.Estimate)
	}
	cfg.Workers = -1
	par, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if par.Estimate != res.Estimate {
		t.Fatalf("parallel %v != sequential %v", par.Estimate, res.Estimate)
	}
}

func TestSessionFacade(t *testing.T) {
	s := Partition(normalData(200000, 5), 8)
	cfg := DefaultConfig()
	cfg.Precision = 1.0
	sess, err := NewSession(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Refine(1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snap.Result.Estimate-100) > 2 {
		t.Fatalf("online estimate = %v", snap.Result.Estimate)
	}
}

func TestExtremeFacade(t *testing.T) {
	s := Partition(normalData(100000, 6), 5)
	truth, err := ExactExtreme(s, MAX)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateExtreme(s, MAX, ExtremeConfig{SampleRate: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value > truth || truth-res.Value > 10 {
		t.Fatalf("extreme %v vs truth %v", res.Value, truth)
	}
}

func TestFileRoundTripFacade(t *testing.T) {
	dir := t.TempDir()
	data := normalData(50000, 8)
	s, err := WriteFiles(filepath.Join(dir, "col"), data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalLen() != 50000 {
		t.Fatalf("file store len = %d", s.TotalLen())
	}
	cfg := DefaultConfig()
	cfg.Precision = 1.0
	res, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-100) > 2 {
		t.Fatalf("file-backed estimate = %v", res.Estimate)
	}
}

func TestOpenFilesFacade(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteFiles(filepath.Join(dir, "col"), normalData(10000, 9), 2); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFiles(filepath.Join(dir, "col.000"), filepath.Join(dir, "col.001"))
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalLen() != 10000 {
		t.Fatalf("len = %d", s.TotalLen())
	}
	if _, err := OpenFiles(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestParseQueryFacade(t *testing.T) {
	q, err := ParseQuery("SELECT AVG(x) FROM t WITH PRECISION 0.1")
	if err != nil {
		t.Fatal(err)
	}
	if q.Table != "t" {
		t.Fatalf("q = %+v", q)
	}
}
