package engine

import (
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
	for _, q := range queries {
		if _, err := eng.ExecuteSQL(q.sql); err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
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
