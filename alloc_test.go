//go:build !race

package isla

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// The allocation budget of a query: what one statement leaves for the
// garbage collector on a 1 M-row, 16-block normal table, plan cache on, one
// worker per CPU. Per-block scratch is recycled, so a query allocates O(1)
// objects, not O(blocks) — and since Go's GC goal is twice the live heap, a
// query's garbage is what decides how far above the table data a serving
// process's RSS climbs. Race instrumentation allocates, hence the build tag.

// allocBudget is one statement class's ceiling per query.
type allocBudget struct {
	bytes  float64
	allocs float64
}

// allocTable builds the budget's table and a database over it.
func allocTable(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.RegisterSlice("t", normalData(1_000_000, 1), 16)
	db.EnablePlanCache(0)
	db.SetWorkers(-1)
	return db
}

// measureQueries runs sqls[i%len(sqls)] after a warm-up pass and returns
// the bytes and objects one query allocates: from MemStats at the ambient
// GOMAXPROCS (the parallel exec path), the least over five batches of n, and,
// for objects, from testing.AllocsPerRun (one P: the sequential path).
func measureQueries(t *testing.T, db *DB, sqls []string, n int) (bytes, allocs, seqAllocs float64) {
	t.Helper()
	ctx := context.Background()
	i := 0
	run := func() {
		if _, err := db.QueryContext(ctx, sqls[i%len(sqls)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range 4 * len(sqls) {
		run() // warm: caches filled, pools primed
	}
	bytes, allocs = steadyState(n, run)
	return bytes, allocs, testing.AllocsPerRun(n, run)
}

// steadyState returns the least per-call bytes and objects over five batches
// of n calls of run. A sync.Pool is per P, and a collection empties it, so a
// batch that follows one pays for refilling the sampling kernel's 128 KiB
// chunk buffers; a per-query allocation shows in every batch.
func steadyState(n int, run func()) (bytes, allocs float64) {
	bytes, allocs = math.Inf(1), math.Inf(1)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
	}
	return bytes, allocs
}

func checkBudget(t *testing.T, class string, b allocBudget, bytes, allocs, seqAllocs float64) {
	t.Helper()
	t.Logf("%s: %.0f B/query, %.1f allocs/query (%.1f on one P)", class, bytes, allocs, seqAllocs)
	if bytes > b.bytes {
		t.Errorf("%s: %.0f B per query, budget %.0f", class, bytes, b.bytes)
	}
	if allocs > b.allocs || seqAllocs > b.allocs {
		t.Errorf("%s: %.1f allocs per query (%.1f on one P), budget %.0f", class, allocs, seqAllocs, b.allocs)
	}
}

// TestAllocBudgetWarm: a repeated unfiltered AVG resumes its cached pilot.
// Its answer is O(1) — the per-block partials stay in the pooled scratch and
// the tokens on the parser's stack — so what it allocates is exec.RunInto's
// per-run context and scheduler, and the answer's interval.
func TestAllocBudgetWarm(t *testing.T) {
	db := allocTable(t)
	sqls := []string{"SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 1"}
	bytes, allocs, seq := measureQueries(t, db, sqls, 100)
	checkBudget(t, "warm AVG", allocBudget{bytes: 1_000, allocs: 9}, bytes, allocs, seq)
}

// TestAllocBudgetCold: a fresh seed each time runs the pilot phase and
// stores the frozen pilot in the plan cache, which is retained, not garbage,
// but counts here all the same.
func TestAllocBudgetCold(t *testing.T) {
	db := allocTable(t)
	const n = 100
	sqls := make([]string, 7*n) // fresh seeds only: five batches, then AllocsPerRun
	for i := range sqls {
		sqls[i] = fmt.Sprintf("SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED %d", 1000+i)
	}
	ctx := context.Background()
	i := 0
	run := func() {
		if _, err := db.QueryContext(ctx, sqls[i]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	run()
	bytes, allocs := steadyState(n, run)
	seq := testing.AllocsPerRun(n, run)
	checkBudget(t, "cold AVG", allocBudget{bytes: 2_500, allocs: 80}, bytes, allocs, seq)
}

// TestAllocBudgetFiltered: warm filtered AVG and COUNT run their moments
// phase in the pooled per-block scratch, as an unfiltered query runs its
// phases, so they too allocate O(1) objects per query.
func TestAllocBudgetFiltered(t *testing.T) {
	db := allocTable(t)
	for _, c := range []struct {
		class string
		sql   string
		b     allocBudget
	}{
		{"warm filtered AVG", "SELECT AVG(v) FROM t WHERE v > 90 WITH PRECISION 0.5 SEED 1", allocBudget{2_500, 60}},
		{"warm filtered COUNT", "SELECT COUNT(*) FROM t WHERE v > 90 WITH PRECISION 0.5 SEED 1", allocBudget{2_500, 60}},
	} {
		bytes, allocs, seq := measureQueries(t, db, []string{c.sql}, 100)
		checkBudget(t, c.class, c.b, bytes, allocs, seq)
	}
}
