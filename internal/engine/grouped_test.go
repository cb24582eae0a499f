package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"isla/internal/core"
	"isla/internal/group"
	"isla/internal/stats"
)

// groupedEngine registers a grouped table "sales" with region groups of
// distinct means plus one tiny group, and returns the engine with the
// exact per-group means.
func groupedEngine(t *testing.T) (*Engine, map[string]float64) {
	t.Helper()
	r := stats.NewRNG(5)
	specs := []struct {
		key       string
		mu, sigma float64
		n         int
	}{
		{"east", 100, 20, 150_000},
		{"west", 50, 10, 100_000},
		{"hq", 300, 5, 200}, // tiny → exact under the small-group fallback
	}
	var rows []group.Row
	truths := map[string]float64{}
	for _, sp := range specs {
		d := stats.Normal{Mu: sp.mu, Sigma: sp.sigma}
		var m stats.Moments
		for i := 0; i < sp.n; i++ {
			v := d.Sample(r)
			rows = append(rows, group.Row{Group: sp.key, Value: v})
			m.Add(v)
		}
		truths[sp.key] = m.Mean()
	}
	g, err := group.BuildColumn("region", rows, 8)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	cat.RegisterGrouped("sales", g)
	return New(cat), truths
}

func TestExecuteGroupBy(t *testing.T) {
	e, truths := groupedEngine(t)
	res, err := e.ExecuteSQL("SELECT AVG(v) FROM sales GROUP BY region WITH PRECISION 0.5 SEED 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %+v", res.Groups)
	}
	if res.Groups[0].Group != "east" || res.Groups[1].Group != "hq" || res.Groups[2].Group != "west" {
		t.Fatalf("group order: %+v", res.Groups)
	}
	for _, gr := range res.Groups {
		if gr.Err != "" {
			t.Fatalf("group %s failed: %s", gr.Group, gr.Err)
		}
		if math.Abs(gr.Value-truths[gr.Group]) > 1.0 {
			t.Errorf("group %s: %v vs truth %v", gr.Group, gr.Value, truths[gr.Group])
		}
		// hq sits below the small-group threshold: scanned exactly, no CI.
		if wantExact := gr.Group == "hq"; gr.Exact != wantExact {
			t.Errorf("group %s: exact = %v", gr.Group, gr.Exact)
		}
		if !gr.Exact && gr.CI == nil {
			t.Errorf("group %s: no CI", gr.Group)
		}
		if gr.Rows == 0 {
			t.Errorf("group %s: rows unset", gr.Group)
		}
	}
	if res.Samples == 0 {
		t.Error("grouped result reports no samples")
	}
}

// TestGroupByBitIdenticalToIsolation: each group's engine answer must be
// exactly what core.Estimate returns on that group's store in isolation
// with the same derived config (no cache attached).
func TestGroupByBitIdenticalToIsolation(t *testing.T) {
	e, _ := groupedEngine(t)
	res, err := e.ExecuteSQL("SELECT AVG(v) FROM sales GROUP BY region WITH PRECISION 0.5 SEED 9")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Catalog.Lookup("sales")
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.BaseConfig()
	cfg.Precision = 0.5
	cfg.Seed = 9
	for _, gr := range res.Groups {
		s, err := tbl.Groups.Group(gr.Group)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Exact {
			want, err := s.ExactMean()
			if err != nil {
				t.Fatal(err)
			}
			if gr.Value != want {
				t.Errorf("group %s: exact %v != ExactMean %v", gr.Group, gr.Value, want)
			}
			continue
		}
		want, err := core.Estimate(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Value != want.Estimate || gr.Samples != want.TotalSamples {
			t.Errorf("group %s: engine %v/%d != isolated %v/%d",
				gr.Group, gr.Value, gr.Samples, want.Estimate, want.TotalSamples)
		}
	}
}

func TestGroupBySUMAndCOUNT(t *testing.T) {
	e, _ := groupedEngine(t)
	avg, err := e.ExecuteSQL("SELECT AVG(v) FROM sales GROUP BY region WITH PRECISION 0.5 SEED 4")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.ExecuteSQL("SELECT SUM(v) FROM sales GROUP BY region WITH PRECISION 0.5 SEED 4")
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := e.ExecuteSQL("SELECT COUNT(v) FROM sales GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	for i := range avg.Groups {
		a, s, c := avg.Groups[i], sum.Groups[i], cnt.Groups[i]
		if s.Value != a.Value*float64(a.Rows) {
			t.Errorf("group %s: SUM %v != AVG·M %v", s.Group, s.Value, a.Value*float64(a.Rows))
		}
		if !c.Exact || c.Value != float64(c.Rows) || c.Samples != 0 {
			t.Errorf("group %s: COUNT = %+v", c.Group, c)
		}
	}
}

func TestGroupByExact(t *testing.T) {
	e, truths := groupedEngine(t)
	res, err := e.ExecuteSQL("SELECT AVG(v) FROM sales GROUP BY region METHOD EXACT")
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range res.Groups {
		if !gr.Exact {
			t.Errorf("group %s not exact", gr.Group)
		}
		if math.Abs(gr.Value-truths[gr.Group]) > 1e-9 {
			t.Errorf("group %s: exact %v vs truth %v", gr.Group, gr.Value, truths[gr.Group])
		}
	}
}

func TestGroupByErrors(t *testing.T) {
	e, _ := groupedEngine(t)
	// Wrong group column.
	if _, err := e.ExecuteSQL("SELECT AVG(v) FROM sales GROUP BY nope WITH PRECISION 0.5"); err == nil ||
		!strings.Contains(err.Error(), "unknown group column") {
		t.Fatalf("err = %v", err)
	}
	// GROUP BY on an ungrouped table.
	plain, _ := testEngine(t)
	if _, err := plain.ExecuteSQL("SELECT AVG(v) FROM sales GROUP BY region WITH PRECISION 0.5"); err == nil ||
		!strings.Contains(err.Error(), "not grouped") {
		t.Fatalf("err = %v", err)
	}
}

// TestUngroupedQueryOnGroupedTable: the combined view answers ungrouped
// statements on a grouped table.
func TestUngroupedQueryOnGroupedTable(t *testing.T) {
	e, _ := groupedEngine(t)
	res, err := e.ExecuteSQL("SELECT AVG(v) FROM sales METHOD EXACT")
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Catalog.Lookup("sales")
	want, err := tbl.Store.ExactMean()
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != want {
		t.Fatalf("combined exact mean %v != %v", res.Value, want)
	}
	if res.Rows != tbl.Store.TotalLen() {
		t.Fatalf("rows = %d", res.Rows)
	}
}

func TestExecuteFilteredAVG(t *testing.T) {
	e, _ := testEngine(t)
	res, err := e.ExecuteSQL("SELECT AVG(v) FROM sales WHERE v > 100 WITH PRECISION 0.5 SEED 6")
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Catalog.Lookup("sales")
	n, sum, err := core.ExactFiltered(tbl.Store, func(v float64) bool { return v > 100 })
	if err != nil {
		t.Fatal(err)
	}
	exact := sum / float64(n)
	if res.CI == nil || math.Abs(res.Value-exact) > 3*res.CI.HalfWidth {
		t.Fatalf("filtered AVG %v vs exact %v (CI %+v)", res.Value, exact, res.CI)
	}
	if res.Filter == nil || res.Filter.Selectivity < 0.4 || res.Filter.Selectivity > 0.6 {
		t.Fatalf("filter info = %+v", res.Filter)
	}
	// METHOD EXACT must agree exactly.
	ex, err := e.ExecuteSQL("SELECT AVG(v) FROM sales WHERE v > 100 METHOD EXACT")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Value != exact {
		t.Fatalf("exact filtered AVG %v != scan %v", ex.Value, exact)
	}
}

func TestExecuteFilteredCOUNTAndSUM(t *testing.T) {
	e, _ := testEngine(t)
	tbl, _ := e.Catalog.Lookup("sales")
	nExact, sumExact, err := core.ExactFiltered(tbl.Store, func(v float64) bool { return v > 120 })
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := e.ExecuteSQL("SELECT COUNT(*) FROM sales WHERE v > 120 WITH PRECISION 0.5 SEED 8")
	if err != nil {
		t.Fatal(err)
	}
	if cnt.CI == nil || math.Abs(cnt.Value-float64(nExact)) > 3*cnt.CI.HalfWidth {
		t.Fatalf("filtered COUNT %v vs exact %d (CI %+v)", cnt.Value, nExact, cnt.CI)
	}
	sum, err := e.ExecuteSQL("SELECT SUM(v) FROM sales WHERE v > 120 WITH PRECISION 0.5 SEED 8")
	if err != nil {
		t.Fatal(err)
	}
	if sum.CI == nil || math.Abs(sum.Value-sumExact) > 3*sum.CI.HalfWidth {
		t.Fatalf("filtered SUM %v vs exact %v (CI %+v)", sum.Value, sumExact, sum.CI)
	}
	// An impossible predicate counts zero without erroring.
	zero, err := e.ExecuteSQL("SELECT COUNT(*) FROM sales WHERE v > 1e12 WITH PRECISION 0.5 SEED 8")
	if err != nil {
		t.Fatal(err)
	}
	if zero.Value != 0 {
		t.Fatalf("impossible predicate counted %v", zero.Value)
	}
	// The zero count still reports the sampling effort that produced it.
	if zero.Samples == 0 || zero.Filter == nil || zero.Filter.Drawn == 0 {
		t.Fatalf("zero count hides its draws: samples=%d filter=%+v", zero.Samples, zero.Filter)
	}
	// ...but an AVG over no matching rows is an error.
	if _, err := e.ExecuteSQL("SELECT AVG(v) FROM sales WHERE v > 1e12 WITH PRECISION 0.5 SEED 8"); err == nil {
		t.Fatal("AVG over an empty selection succeeded")
	}
}

// TestGroupedFilteredQuery: WHERE + GROUP BY per group, each group's
// filtered estimate within CI bounds of its exact filtered mean.
func TestGroupedFilteredQuery(t *testing.T) {
	e, _ := groupedEngine(t)
	res, err := e.ExecuteSQL("SELECT AVG(v) FROM sales WHERE v > 60 GROUP BY region WITH PRECISION 0.5 SEED 10")
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Catalog.Lookup("sales")
	pred := func(v float64) bool { return v > 60 }
	for _, gr := range res.Groups {
		if gr.Err != "" {
			// The all-below-threshold group may legitimately fail with no
			// matching rows; only accept that specific failure.
			if !strings.Contains(gr.Err, "predicate") {
				t.Errorf("group %s failed: %s", gr.Group, gr.Err)
			}
			continue
		}
		s, _ := tbl.Groups.Group(gr.Group)
		n, sum, err := core.ExactFiltered(s, pred)
		if err != nil {
			t.Fatal(err)
		}
		exact := sum / float64(n)
		if gr.Exact {
			// Small group: exact filtered scan, no CI or filter info.
			if gr.Value != exact {
				t.Errorf("group %s: exact filtered %v != scan %v", gr.Group, gr.Value, exact)
			}
			continue
		}
		if gr.CI == nil || math.Abs(gr.Value-exact) > 3*gr.CI.HalfWidth {
			t.Errorf("group %s: filtered %v vs exact %v (CI %+v)", gr.Group, gr.Value, exact, gr.CI)
		}
		if gr.Filter == nil || gr.Filter.Drawn == 0 {
			t.Errorf("group %s: filter info %+v", gr.Group, gr.Filter)
		}
	}
}

// TestGroupedPlanCacheWarmHits: with the cache attached, a repeat grouped
// query hits one cached pilot per group, skips every pilot and answers
// bit-identically; re-registration invalidates all of them.
func TestGroupedPlanCacheWarmHits(t *testing.T) {
	e, _ := groupedEngine(t)
	cache := e.EnablePlanCache(0)
	sql := "SELECT AVG(v) FROM sales GROUP BY region WITH PRECISION 0.5 SEED 12"
	cold, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	sampled := 0
	for _, gr := range cold.Groups {
		if gr.PilotCached {
			t.Errorf("cold group %s claims a cache hit", gr.Group)
		}
		if !gr.Exact {
			sampled++
		}
	}
	if sampled == 0 {
		t.Fatal("no sampled groups")
	}
	st := cache.Stats()
	if st.Misses != int64(sampled) || st.Entries != sampled {
		t.Fatalf("cold stats = %+v (sampled groups %d)", st, sampled)
	}
	warm, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	for i, gr := range warm.Groups {
		if !gr.Exact && !gr.PilotCached {
			t.Errorf("warm group %s missed the cache", gr.Group)
		}
		if gr.Value != cold.Groups[i].Value || gr.Samples != cold.Groups[i].Samples {
			t.Errorf("group %s: warm %v/%d != cold %v/%d",
				gr.Group, gr.Value, gr.Samples, cold.Groups[i].Value, cold.Groups[i].Samples)
		}
	}
	if st := cache.Stats(); st.Hits != int64(sampled) {
		t.Fatalf("warm stats = %+v", st)
	}

	// A filtered grouped query freezes separate per-group filter pilots.
	fsql := "SELECT AVG(v) FROM sales WHERE v > 60 GROUP BY region WITH PRECISION 0.5 SEED 12"
	fcold, err := e.ExecuteSQL(fsql)
	if err != nil {
		t.Fatal(err)
	}
	fwarm, err := e.ExecuteSQL(fsql)
	if err != nil {
		t.Fatal(err)
	}
	for i, gr := range fwarm.Groups {
		if gr.Err != "" || gr.Exact {
			continue
		}
		if !gr.PilotCached {
			t.Errorf("warm filtered group %s missed the cache", gr.Group)
		}
		if gr.Value != fcold.Groups[i].Value {
			t.Errorf("filtered group %s: warm %v != cold %v", gr.Group, gr.Value, fcold.Groups[i].Value)
		}
	}

	// Re-registration drops every per-group entry.
	tbl, _ := e.Catalog.Lookup("sales")
	e.Catalog.RegisterGrouped("sales", tbl.Groups)
	if got := cache.Len(); got != 0 {
		t.Fatalf("cache holds %d entries after re-registration", got)
	}
	again, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range again.Groups {
		if gr.PilotCached {
			t.Errorf("group %s hit a stale pilot after re-registration", gr.Group)
		}
	}
}

// TestFilteredWorkerInvarianceThroughEngine: worker count must not change
// filtered answers.
func TestFilteredWorkerInvarianceThroughEngine(t *testing.T) {
	e, _ := testEngine(t)
	sql := "SELECT AVG(v) FROM sales WHERE v < 110 WITH PRECISION 0.5 SEED 13"
	e.SetWorkers(1)
	one, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(4)
	four, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if one.Value != four.Value || one.Samples != four.Samples {
		t.Fatalf("workers changed the answer: %v/%d vs %v/%d", one.Value, one.Samples, four.Value, four.Samples)
	}
}

// TestFilteredPlanCacheCrossPrecision: the frozen filter pilot is sized
// precision-independently, so a pilot frozen by a coarse query must serve
// a later fine query with exactly the answer a cold fine run would give —
// regression test for a pilot whose draw count depended on the freezing
// query's precision.
func TestFilteredPlanCacheCrossPrecision(t *testing.T) {
	coarse := "SELECT AVG(v) FROM sales WHERE v > 100 WITH PRECISION 0.5 SEED 3"
	fine := "SELECT AVG(v) FROM sales WHERE v > 100 WITH PRECISION 0.05 SEED 3"

	ref, _ := testEngine(t)
	ref.EnablePlanCache(0)
	want, err := ref.ExecuteSQL(fine)
	if err != nil {
		t.Fatal(err)
	}

	e, _ := testEngine(t)
	e.EnablePlanCache(0)
	if _, err := e.ExecuteSQL(coarse); err != nil {
		t.Fatal(err)
	}
	got, err := e.ExecuteSQL(fine)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value || got.Samples != want.Samples {
		t.Fatalf("fine query after coarse warm-up: %v/%d != cold fine %v/%d",
			got.Value, got.Samples, want.Value, want.Samples)
	}
}

// TestEmptyGroupKeyCacheIsolation: "" is a legal group key; its plan-cache
// entries must never collide with the table-level (combined view) entries,
// which also carry an empty group key — regression test for the grouped
// discriminator in plancache.Key.
func TestEmptyGroupKeyCacheIsolation(t *testing.T) {
	r := stats.NewRNG(8)
	var rows []group.Row
	for i := 0; i < 30_000; i++ {
		rows = append(rows, group.Row{Group: "", Value: 100 + 20*r.NormFloat64()})
		rows = append(rows, group.Row{Group: "b", Value: 50 + 10*r.NormFloat64()})
	}
	build := func() *Engine {
		g, err := group.BuildColumn("g", rows, 4)
		if err != nil {
			t.Fatal(err)
		}
		cat := NewCatalog()
		cat.RegisterGrouped("t", g)
		e := New(cat)
		e.EnablePlanCache(0)
		return e
	}
	grouped := "SELECT AVG(v) FROM t GROUP BY g WITH PRECISION 0.5 SEED 3"
	filtered := "SELECT AVG(v) FROM t WHERE v > 60 GROUP BY g WITH PRECISION 0.5 SEED 3"

	ref := build()
	want, err := ref.ExecuteSQL(grouped)
	if err != nil {
		t.Fatal(err)
	}
	wantF, err := ref.ExecuteSQL(filtered)
	if err != nil {
		t.Fatal(err)
	}

	// Same statements, but with table-level queries (group key "", not
	// grouped) warming the cache first.
	e := build()
	if _, err := e.ExecuteSQL("SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 3"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecuteSQL("SELECT AVG(v) FROM t WHERE v > 60 WITH PRECISION 0.5 SEED 3"); err != nil {
		t.Fatal(err)
	}
	got, err := e.ExecuteSQL(grouped)
	if err != nil {
		t.Fatal(err)
	}
	gotF, err := e.ExecuteSQL(filtered)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Groups {
		if got.Groups[i].Err != "" || got.Groups[i].Value != want.Groups[i].Value {
			t.Errorf("group %q: %+v != reference %+v", want.Groups[i].Group, got.Groups[i], want.Groups[i])
		}
		if gotF.Groups[i].Err != "" || gotF.Groups[i].Value != wantF.Groups[i].Value {
			t.Errorf("filtered group %q: %+v != reference %+v", wantF.Groups[i].Group, gotF.Groups[i], wantF.Groups[i])
		}
	}
}
