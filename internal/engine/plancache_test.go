package engine

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"isla/internal/core"
	"isla/internal/workload"
)

// TestPlanCacheWarmBitIdentical is the cache's headline contract: a repeat
// query on the same table and seed returns a bit-identical answer, skips
// the pilot phase (PilotCached diagnostic), and matches the cache-less
// per-block pipeline exactly.
func TestPlanCacheWarmBitIdentical(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 200000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	cat.Register("sales", s)
	e := New(cat)
	e.EnablePlanCache(0)

	const sql = "SELECT AVG(v) FROM sales WITH PRECISION 0.5 SEED 9"
	cold, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Detail == nil || cold.Detail.PilotCached {
		t.Fatalf("cold run: detail %+v", cold.Detail)
	}
	warm, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Detail == nil || !warm.Detail.PilotCached {
		t.Fatal("warm run did not report a cached pilot")
	}

	if warm.Value != cold.Value {
		t.Fatalf("warm value %v != cold %v", warm.Value, cold.Value)
	}
	if *warm.CI != *cold.CI {
		t.Fatalf("warm CI %+v != cold %+v", warm.CI, cold.CI)
	}
	if warm.Samples != cold.Samples {
		t.Fatalf("warm samples %d != cold %d", warm.Samples, cold.Samples)
	}
	if !reflect.DeepEqual(warm.Detail.PerBlock, cold.Detail.PerBlock) {
		t.Fatal("per-block answers differ between warm and cold")
	}

	// Three-way: the cache-enabled engine path must be bit-identical to
	// the library's per-block pipeline with the same knobs.
	cfg := core.DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 9
	cfg.PerBlockBounds = true
	lib, err := core.Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Estimate != cold.Value || lib.TotalSamples != cold.Samples {
		t.Fatalf("engine path %v/%d, library per-block path %v/%d",
			cold.Value, cold.Samples, lib.Estimate, lib.TotalSamples)
	}

	st := e.PlanCache().Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("cache stats %+v", st)
	}
}

// TestPlanCacheKeying: distinct seeds and sample fractions build distinct
// pilots; distinct precision targets share one.
func TestPlanCacheKeying(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 100000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	cat.Register("t", s)
	e := New(cat)
	e.EnablePlanCache(0)

	run := func(sql string) {
		t.Helper()
		if _, err := e.ExecuteSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	run("SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 1")
	run("SELECT AVG(v) FROM t WITH PRECISION 1.0 SEED 1")                 // precision change: same pilot
	run("SELECT AVG(v) FROM t WITH PRECISION 0.5 CONFIDENCE 0.99 SEED 1") // confidence too
	if st := e.PlanCache().Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("precision/confidence must share a pilot: %+v", st)
	}
	run("SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 2")                    // new seed: new pilot
	run("SELECT AVG(v) FROM t WITH PRECISION 0.5 SAMPLEFRACTION 0.5 SEED 1") // new fraction
	if st := e.PlanCache().Stats(); st.Misses != 3 {
		t.Fatalf("seed/fraction must key separately: %+v", st)
	}
}

// TestPlanCacheInvalidation: re-registering a table bumps its generation,
// so queries never see a stale pilot and answers match a fresh engine.
func TestPlanCacheInvalidation(t *testing.T) {
	old, _, err := workload.Normal(100, 20, 100000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	cat.Register("t", old)
	e := New(cat)
	e.EnablePlanCache(0)

	const sql = "SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 3"
	before, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if e.PlanCache().Len() != 1 {
		t.Fatalf("cache len %d", e.PlanCache().Len())
	}

	// Replace the store with different data (mean 150).
	repl, _, err := workload.Normal(150, 20, 100000, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	cat.Register("t", repl)
	if e.PlanCache().Len() != 0 {
		t.Fatal("Register did not invalidate the cached pilot")
	}

	after, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if after.Detail.PilotCached {
		t.Fatal("query after Register served a stale pilot")
	}
	if after.Value == before.Value {
		t.Fatal("answer unchanged after data replacement")
	}

	// The post-replacement answer must be bit-identical to a fresh engine
	// over the same store: no residue from the old generation.
	fresh := New(func() *Catalog { c := NewCatalog(); c.Register("t", repl); return c }())
	fresh.EnablePlanCache(0)
	want, err := fresh.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if after.Value != want.Value || after.Samples != want.Samples {
		t.Fatalf("after replacement %v/%d, fresh engine %v/%d",
			after.Value, after.Samples, want.Value, want.Samples)
	}
}

// TestPlanCacheSingleFlight: N concurrent first queries run one pilot.
func TestPlanCacheSingleFlight(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 200000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	cat.Register("t", s)
	e := New(cat)
	e.EnablePlanCache(0)

	const sql = "SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 4"
	const callers = 16
	results := make([]Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := e.ExecuteSQL(sql)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	st := e.PlanCache().Stats()
	if st.Misses != 1 {
		t.Fatalf("pilot ran %d times for %d concurrent queries", st.Misses, callers)
	}
	if st.Hits != callers-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i].Value != results[0].Value || results[i].Samples != results[0].Samples {
			t.Fatalf("caller %d got %v/%d, caller 0 got %v/%d",
				i, results[i].Value, results[i].Samples, results[0].Value, results[0].Samples)
		}
	}
}

// TestPlanCacheTimeBound: the §VII-F time-constraint path also reuses the
// frozen pilot — the repeat query reports PilotCached.
func TestPlanCacheTimeBound(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 100000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	cat.Register("t", s)
	e := New(cat)
	e.EnablePlanCache(0)

	const sql = "SELECT AVG(v) FROM t WITH TIME 0.2 SEED 6"
	cold, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Detail == nil || cold.Detail.PilotCached {
		t.Fatalf("cold time-bound run: %+v", cold.Detail)
	}
	warm, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Detail == nil || !warm.Detail.PilotCached {
		t.Fatal("warm time-bound run did not reuse the pilot")
	}
}
