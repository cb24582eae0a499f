package engine

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"isla/internal/block"
	"isla/internal/group"
	"isla/internal/query"
	"isla/internal/stats"
	"isla/internal/workload"
)

func testEngine(t *testing.T) (*Engine, float64) {
	t.Helper()
	s, truth, err := workload.Normal(100, 20, 300000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	cat.Register("sales", s)
	return New(cat), truth
}

func TestCatalog(t *testing.T) {
	e, _ := testEngine(t)
	if _, err := e.Catalog.Lookup("sales"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Catalog.Lookup("nope"); err == nil {
		t.Fatal("unknown table accepted")
	}
	names := e.Catalog.Names()
	if len(names) != 1 || names[0] != "sales" {
		t.Fatalf("names = %v", names)
	}
}

func TestExecuteAvgISLA(t *testing.T) {
	e, truth := testEngine(t)
	res, err := e.ExecuteSQL("SELECT AVG(v) FROM sales WITH PRECISION 0.5 SEED 3")
	if err != nil {
		t.Fatal(err)
	}
	// One draw against a 95% guarantee: allow 2e here; the statistical
	// coverage assertions live in the core package tests.
	if math.Abs(res.Value-truth) > 1.0 {
		t.Fatalf("ISLA avg = %v, truth %v", res.Value, truth)
	}
	if res.CI == nil || !res.CI.Contains(res.Value) {
		t.Fatal("missing or inconsistent CI")
	}
	if res.PilotSize == 0 || res.Samples == 0 {
		t.Fatal("missing ISLA diagnostics")
	}
	if res.Rows != 300000 {
		t.Fatalf("rows = %d", res.Rows)
	}
	if res.Duration <= 0 {
		t.Fatal("non-positive duration")
	}
}

func TestExecuteSumDerivesFromAvg(t *testing.T) {
	e, _ := testEngine(t)
	avg, err := e.ExecuteSQL("SELECT AVG(v) FROM sales WITH PRECISION 0.5 SEED 3")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.ExecuteSQL("SELECT SUM(v) FROM sales WITH PRECISION 0.5 SEED 3")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Value-avg.Value*300000) > 1e-6*sum.Value {
		t.Fatalf("SUM %v != AVG %v × M", sum.Value, avg.Value)
	}
	if sum.CI.HalfWidth != avg.CI.HalfWidth*300000 {
		t.Fatal("SUM CI not scaled")
	}
}

func TestExecuteCountExact(t *testing.T) {
	e, _ := testEngine(t)
	res, err := e.ExecuteSQL("SELECT COUNT(*) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 300000 {
		t.Fatalf("count = %v", res.Value)
	}
	if res.CI != nil {
		t.Fatal("COUNT should have no CI")
	}
}

func TestExecuteExact(t *testing.T) {
	e, truth := testEngine(t)
	res, err := e.ExecuteSQL("SELECT AVG(v) FROM sales METHOD EXACT")
	if err != nil {
		t.Fatal(err)
	}
	// Exact scan: matches the store's true mean to float precision.
	if math.Abs(res.Value-truth) > 0.2 {
		t.Fatalf("exact = %v, truth %v", res.Value, truth)
	}
}

func TestExecuteBaselineMethods(t *testing.T) {
	e, truth := testEngine(t)
	for _, m := range []string{"US", "STS"} {
		res, err := e.ExecuteSQL("SELECT AVG(v) FROM sales WITH PRECISION 0.5 METHOD " + m + " SEED 5")
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if math.Abs(res.Value-truth) > 1 {
			t.Fatalf("%s = %v, truth %v", m, res.Value, truth)
		}
	}
	// MV must exhibit its characteristic overestimate (~ +4 for N(100,20)).
	res, err := e.ExecuteSQL("SELECT AVG(v) FROM sales WITH PRECISION 0.5 METHOD MV SEED 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < 103 || res.Value > 105 {
		t.Fatalf("MV = %v, want ~104", res.Value)
	}
	// MVB lands between truth and MV.
	res, err = e.ExecuteSQL("SELECT AVG(v) FROM sales WITH PRECISION 0.5 METHOD MVB SEED 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < 100 || res.Value > 102 {
		t.Fatalf("MVB = %v, want ~100.5", res.Value)
	}
}

func TestExecuteUnknownTable(t *testing.T) {
	e, _ := testEngine(t)
	if _, err := e.ExecuteSQL("SELECT AVG(v) FROM missing WITH PRECISION 1"); err == nil ||
		!strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("err = %v", err)
	}
}

func TestExecuteParseErrorPropagates(t *testing.T) {
	e, _ := testEngine(t)
	if _, err := e.ExecuteSQL("SELEC AVG(v) FROM sales"); err == nil {
		t.Fatal("parse error swallowed")
	}
}

func TestExecuteUnsupportedMethodGuard(t *testing.T) {
	e, _ := testEngine(t)
	q := query.Query{Agg: query.AVG, Column: "v", Table: "sales", Precision: 1, Method: query.Method(99)}
	if _, err := e.Execute(q); err == nil {
		t.Fatal("bogus method accepted")
	}
}

func TestSampleFractionPlumbed(t *testing.T) {
	e, _ := testEngine(t)
	full, err := e.ExecuteSQL("SELECT AVG(v) FROM sales WITH PRECISION 0.5 SEED 3")
	if err != nil {
		t.Fatal(err)
	}
	third, err := e.ExecuteSQL("SELECT AVG(v) FROM sales WITH PRECISION 0.5 SAMPLEFRACTION 0.333 SEED 3")
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(third.Samples) / float64(full.Samples)
	if math.Abs(ratio-0.333) > 0.02 {
		t.Fatalf("sample ratio = %v, want ~1/3", ratio)
	}
}

// The default file path end to end: a store over v2 block files (mmap
// where supported) served through the engine with summary pilots and the
// plan cache. The cold query's pilot comes from the persisted footers
// (zero pilot samples), the warm query skips pre-estimation entirely, and
// both answers are bit-identical.
func TestFileStoreSummaryPilotServing(t *testing.T) {
	mem, truth, err := workload.Normal(100, 20, 100000, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	var data []float64
	if err := mem.Scan(func(v float64) error { data = append(data, v); return nil }); err != nil {
		t.Fatal(err)
	}
	s, err := block.WritePartitioned(filepath.Join(t.TempDir(), "col"), data, 5)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	cat := NewCatalog()
	cat.Register("sales", s)
	eng := New(cat)
	cfg := eng.BaseConfig()
	cfg.SummaryPilot = true
	eng.SetBaseConfig(cfg)
	eng.EnablePlanCache(8)

	const q = "SELECT AVG(v) FROM sales WITH PRECISION 0.1 SEED 42"
	cold, err := eng.ExecuteSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PilotSize != 0 {
		t.Fatalf("cold pilot size = %d, want summary-served (size 0)", cold.PilotSize)
	}
	if cold.PilotCached {
		t.Fatal("cold query claims a cache hit")
	}
	if math.Abs(cold.Value-truth) > 1 {
		t.Fatalf("estimate %v too far from truth %v", cold.Value, truth)
	}
	warm, err := eng.ExecuteSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.PilotCached {
		t.Fatal("warm query missed the plan cache")
	}
	if math.Float64bits(warm.Value) != math.Float64bits(cold.Value) {
		t.Fatalf("warm %v != cold %v", warm.Value, cold.Value)
	}

	// EXACT answers come straight from the persisted summaries.
	exact, err := eng.ExecuteSQL("SELECT AVG(v) FROM sales METHOD EXACT")
	if err != nil {
		t.Fatal(err)
	}
	sum, ok := s.Summary()
	if !ok {
		t.Fatal("file store has no summary")
	}
	if math.Float64bits(exact.Value) != math.Float64bits(sum.Mean()) {
		t.Fatalf("exact %v, want summary mean %v", exact.Value, sum.Mean())
	}
}

// TestNaNRowsRefuseUnfilteredAnswers: a pilot that draws a NaN row has a NaN
// σ, for which Eq. 1 gives no sample size; so does one that draws an
// infinite row, or rows of both signs. An unfiltered statement over such a
// table fails with an error — cold and warm from the plan cache, sized by
// precision or by a time budget — instead of answering NaN with a precision
// assurance from one draw per block; an exact scan's NaN or infinity is
// refused with ErrNonFinite. (The filtered path keeps the dialect's NaN
// rule: TestNotEqualExactMatchesScan.)
func TestNaNRowsRefuseUnfilteredAnswers(t *testing.T) {
	for _, bad := range [][2]float64{
		{math.NaN(), math.NaN()},
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), math.Inf(-1)},
		{math.Inf(1), math.Inf(-1)},
	} {
		r := stats.NewRNG(1)
		data := make([]float64, 100_000)
		for i := range data {
			data[i] = 100 + 20*r.NormFloat64()
			if i%50 == 0 {
				data[i] = bad[i/50%2] // 2 % of the rows
			}
		}
		cat := NewCatalog()
		cat.Register("t", block.Partition(data, 10))
		e := New(cat)
		for _, cache := range []bool{false, true, true} { // no cache, cold, warm
			if cache && e.PlanCache() == nil {
				e.EnablePlanCache(0)
			}
			for _, sql := range []string{
				"SELECT AVG(v) FROM t WITH PRECISION 0.1 SEED 3",
				"SELECT SUM(v) FROM t WITH PRECISION 0.1 SEED 3",
				"SELECT AVG(v) FROM t WITH TIME 0.5 SEED 3",
				"SELECT AVG(v) FROM t METHOD EXACT",
				"SELECT SUM(v) FROM t METHOD EXACT",
			} {
				res, err := e.ExecuteSQL(sql)
				if err == nil {
					t.Errorf("rows %v, cache=%v: %s answered %v (%+v) from %d samples, want an error",
						bad, cache, sql, res.Value, res.CI, res.Samples)
				} else if strings.HasSuffix(sql, "EXACT") && !errors.Is(err, ErrNonFinite) {
					t.Errorf("rows %v, cache=%v: %s: %v, want ErrNonFinite", bad, cache, sql, err)
				}
			}
		}
	}
}

// TestNonFiniteAnswersRefused: an exact SUM of finite rows can overflow to
// +Inf, which is no answer (a JSON encoder cannot even write one): it is
// refused with ErrNonFinite while the AVG of the same rows answers, and under
// GROUP BY only the group with NaN rows fails.
func TestNonFiniteAnswersRefused(t *testing.T) {
	r := stats.NewRNG(1)
	var rows []group.Row
	for i := 0; i < 100_000; i++ {
		v := 100 + 20*r.NormFloat64()
		if i%50 == 0 {
			v = math.NaN()
		}
		rows = append(rows, group.Row{Group: "nan", Value: v}, group.Row{Group: "ok", Value: 100 + 20*r.NormFloat64()})
	}
	g, err := group.BuildColumn("g", rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]float64, 1000)
	for i := range huge {
		huge[i] = 1e306 // the mean is finite, the sum is not
	}
	cat := NewCatalog()
	cat.Register("huge", block.Partition(huge, 4))
	cat.RegisterGrouped("grouped", g)
	e := New(cat)
	if res, err := e.ExecuteSQL("SELECT SUM(v) FROM huge METHOD EXACT"); !errors.Is(err, ErrNonFinite) {
		t.Errorf("exact SUM = %v, %v; want ErrNonFinite", res.Value, err)
	}
	if res, err := e.ExecuteSQL("SELECT AVG(v) FROM huge METHOD EXACT"); err != nil || res.Value != 1e306 {
		t.Errorf("exact AVG = %v, %v; want 1e306", res.Value, err)
	}
	res, err := e.ExecuteSQL("SELECT AVG(v) FROM grouped GROUP BY g METHOD EXACT")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 || !strings.Contains(res.Groups[0].Err, ErrNonFinite.Error()) ||
		res.Groups[1].Err != "" || math.Abs(res.Groups[1].Value-100) > 1 {
		t.Errorf("groups = %+v; want nan refused with ErrNonFinite and ok answered", res.Groups)
	}
}
