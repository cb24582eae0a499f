package engine

import (
	"fmt"
	"testing"
	"time"

	"isla/internal/metrics"
	"isla/internal/workload"
)

// Every completed query must land in the metrics registry under its
// class, with its sample count and latency.
func TestEngineRecordsMetrics(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 100_000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := NewCatalog()
	catalog.Register("sales", s)
	eng := New(catalog)

	queries := []struct {
		sql   string
		class metrics.Class
	}{
		{"SELECT AVG(v) FROM sales WITH PRECISION 0.5 SEED 1", metrics.ClassPoint},
		{"SELECT AVG(v) FROM sales WHERE v > 90 WITH PRECISION 0.5 SEED 1", metrics.ClassFiltered},
		{"SELECT AVG(v) FROM sales WITH TIME 0.05 SEED 1", metrics.ClassTimebound},
	}
	fallback := make(map[metrics.Class]bool)
	for _, q := range queries {
		res, err := eng.ExecuteSQL(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		fallback[q.class] = res.Fallback
	}

	reg := eng.Metrics()
	tm := reg.Table("sales")
	for _, q := range queries {
		qs := tm.Class(q.class)
		if qs.Queries.Load() != 1 {
			t.Errorf("class %v: queries = %d, want 1", q.class, qs.Queries.Load())
		}
		if qs.Samples.Load() == 0 {
			t.Errorf("class %v: no samples recorded", q.class)
		}
		if qs.Latency.Count() != 1 {
			t.Errorf("class %v: latency observations = %d", q.class, qs.Latency.Count())
		}
		if want := map[bool]int64{true: 1}[fallback[q.class]]; qs.Fallback.Load() != want {
			t.Errorf("class %v: fallbacks = %d, want %d", q.class, qs.Fallback.Load(), want)
		}
	}
	if n, _, _ := reg.Totals(); n != 3 {
		t.Fatalf("total queries = %d, want 3", n)
	}
	if reg.QPS(10*time.Second) <= 0 {
		t.Error("windowed QPS must be positive right after queries")
	}

	// Failed queries must not pollute the registry.
	if _, err := eng.ExecuteSQL("SELECT AVG(v) FROM nope WITH PRECISION 0.5"); err == nil {
		t.Fatal("expected unknown-table error")
	}
	if n, _, _ := reg.Totals(); n != 3 {
		t.Fatalf("failed query was recorded: totals = %d", n)
	}
}

// A grouped query counts once as a fallback when any of its groups printed
// the certificate's value instead of ISLA's answer.
func TestGroupedFallbackCounted(t *testing.T) {
	e, _ := groupedEngine(t)
	cell := e.Metrics().Table("sales").Class(metrics.ClassGrouped)
	var want int64
	for seed := 1; seed <= 6; seed++ {
		res, err := e.ExecuteSQL(fmt.Sprintf("SELECT AVG(v) FROM sales GROUP BY region WITH PRECISION 0.5 SEED %d", seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Groups {
			if g.Fallback {
				want++
				break
			}
		}
		if got := cell.Fallback.Load(); got != want {
			t.Fatalf("seed %d: %d grouped fallbacks counted, want %d", seed, got, want)
		}
	}
	if want == 0 {
		t.Fatal("no group printed the certificate's value; the test exercises nothing")
	}
}

// A time-budgeted query surfaces its §VII-F accounting on the Result.
func TestTimeboundResultAccounting(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 100_000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := NewCatalog()
	catalog.Register("sales", s)
	eng := New(catalog)

	res, err := eng.ExecuteSQL("SELECT AVG(v) FROM sales WITH TIME 0.05 SEED 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.AchievedPrecision <= 0 {
		t.Errorf("achieved precision = %v, want > 0", res.AchievedPrecision)
	}
	if res.Rounds <= 0 || res.Rounds > 5 {
		t.Errorf("rounds = %d", res.Rounds)
	}
	if res.Truncated == (res.Rounds == 5) {
		t.Errorf("truncated %v after %d of 5 rounds", res.Truncated, res.Rounds)
	}
	if res.Partial != nil || res.Samples < 8 {
		t.Errorf("a time-bound answer covers every block: %d samples, partial %+v", res.Samples, res.Partial)
	}
}
