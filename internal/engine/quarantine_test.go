package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/group"
	"isla/internal/query"
	"isla/internal/stats"
)

// corruptTable registers a 4-block file-backed table named "t" whose block
// 1 is corrupted on disk after open, and returns the engine (no scrub run
// yet — the caller decides).
func corruptTable(t *testing.T) (*Engine, *block.Store) {
	t.Helper()
	r := stats.NewRNG(8)
	data := make([]float64, 800)
	for i := range data {
		data[i] = 50 + 5*r.NormFloat64()
	}
	prefix := filepath.Join(t.TempDir(), "t")
	s, err := block.WritePartitionedMode(prefix, data, 4, block.ModePread)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if _, err := block.NewFaults(13).FlipPayloadByte(prefix + ".001"); err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	cat.Register("t", s)
	return New(cat), s
}

// Scrub finds the damage, quarantines it, and surfaces it in the engine's
// stats and quarantine map.
func TestEngineScrubQuarantines(t *testing.T) {
	e, s := corruptTable(t)
	reports, err := e.Scrub(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Table != "t" {
		t.Fatalf("reports = %+v", reports)
	}
	rep := reports[0].Report
	if len(rep.Corrupt) != 1 || rep.Corrupt[0].BlockID != 1 {
		t.Fatalf("Corrupt = %+v, want exactly block 1", rep.Corrupt)
	}
	if ids := s.QuarantinedIDs(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("quarantined after scrub = %v, want block 1", ids)
	}
	qb := e.QuarantinedBlocks()
	if got := qb["t"]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("QuarantinedBlocks = %v", qb)
	}
	st := e.Stats()
	if st.ScrubRuns != 1 || st.ScrubChecked != 4 || st.ScrubCorrupt != 1 {
		t.Fatalf("scrub counters = %d/%d/%d, want 1/4/1",
			st.ScrubRuns, st.ScrubChecked, st.ScrubCorrupt)
	}
}

// The per-statement degradation policy over a quarantined table.
func TestEngineQuarantinePolicy(t *testing.T) {
	e, s := corruptTable(t)
	if _, err := e.Scrub(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	var qe *core.QuarantinedError
	// Default (no AllowPartial): the approximate query refuses.
	if _, err := e.ExecuteSQL("SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 3"); !errors.As(err, &qe) {
		t.Fatalf("AVG on damaged table: err = %v, want *QuarantinedError", err)
	}
	// Unfiltered COUNT answers from metadata regardless.
	res, err := e.ExecuteSQL("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("COUNT: %v", err)
	}
	if res.Value != 800 {
		t.Errorf("COUNT = %v, want 800", res.Value)
	}

	e.SetAllowPartial(true)
	// ISLA AVG degrades: Partial accounting matches the lost block exactly.
	res, err = e.ExecuteSQL("SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 3")
	if err != nil {
		t.Fatalf("degraded AVG: %v", err)
	}
	p := res.Partial
	if p == nil {
		t.Fatal("Result.Partial = nil on a degraded run")
	}
	if len(p.MissingBlocks) != 1 || p.MissingBlocks[0] != 1 || p.CoveredRows != 600 || p.TotalRows != 800 {
		t.Fatalf("Partial = %+v, want block 1 missing, 600/800 rows", p)
	}
	// SUM scales by the covered rows, not the registered total.
	sum, err := e.ExecuteSQL("SELECT SUM(v) FROM t WITH PRECISION 0.5 SEED 3")
	if err != nil {
		t.Fatalf("degraded SUM: %v", err)
	}
	avgOverCovered := sum.Value / float64(sum.Partial.CoveredRows)
	if math.Abs(avgOverCovered-res.Value) > 1e-9 {
		t.Errorf("SUM/CoveredRows = %v, want the degraded AVG %v", avgOverCovered, res.Value)
	}

	// Statements whose statistics cannot be rescaled soundly still refuse,
	// AllowPartial or not.
	for _, sql := range []string{
		"SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 3 WHERE v > 50",
		"SELECT AVG(v) FROM t WITH PRECISION 0.5 METHOD UNIFORM SEED 3",
		"SELECT AVG(v) FROM t WITH TIME 0.2 SEED 3",
	} {
		if _, err := e.ExecuteSQL(sql); !errors.As(err, &qe) {
			t.Errorf("%s: err = %v, want *QuarantinedError", sql, err)
		}
	}

	// Exact AVG is served from the summaries, which carry their own CRC in
	// the footer and stay trusted after payload corruption: the answer is
	// the true full-table mean, no degradation needed.
	exact, err := e.ExecuteSQL("SELECT AVG(v) FROM t METHOD EXACT")
	if err != nil {
		t.Fatalf("exact AVG: %v", err)
	}
	if exact.Partial != nil {
		t.Error("exact AVG reported Partial; summaries cover the whole table")
	}

	// Repair: clearing the quarantine restores normal refusal-free service
	// (the corruption is still on disk, but the engine no longer knows — a
	// re-scrub would re-quarantine; here we only check the gate clears).
	s.ClearQuarantine()
	if _, err := e.ExecuteSQL("SELECT COUNT(*) FROM t"); err != nil {
		t.Fatalf("after ClearQuarantine: %v", err)
	}
	if len(e.QuarantinedBlocks()) != 0 {
		t.Error("QuarantinedBlocks non-empty after ClearQuarantine")
	}
}

// TestExactRoutesRefuseQuarantinedScan: on a summary-less (in-memory) store
// the exact routes scan, and the scan refuses a quarantined block with a
// *block.CorruptBlockError — METHOD EXACT filtered or not, and a small group
// alike — instead of averaging the damaged block into the answer.
func TestExactRoutesRefuseQuarantinedScan(t *testing.T) {
	data := make([]float64, 4000)
	rows := make([]group.Row, 1000) // one group, under smallGroupRows
	for i := range data {
		data[i] = float64(i % 100)
		if i < len(rows) {
			rows[i] = group.Row{Group: "small", Value: data[i]}
		}
	}
	s := block.Partition(data, 4)
	s.Quarantine(1)
	g, err := group.BuildColumn("region", rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := g.Group("small")
	small.Quarantine(1)
	cat := NewCatalog()
	cat.Register("t", s)
	cat.RegisterGrouped("g", g)
	e := New(cat)

	var ce *block.CorruptBlockError
	for _, sql := range []string{
		"SELECT AVG(v) FROM t METHOD EXACT",
		"SELECT SUM(v) FROM t METHOD EXACT",
		"SELECT AVG(v) FROM t WHERE v > 10 METHOD EXACT",
	} {
		if res, err := e.ExecuteSQL(sql); !errors.As(err, &ce) {
			t.Errorf("%s = %v, %v; want *block.CorruptBlockError", sql, res.Value, err)
		}
	}

	const sql = "SELECT AVG(v) FROM g GROUP BY region WITH PRECISION 0.5 SEED 3"
	q, err := query.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Catalog.Lookup("g")
	parts, err := groupTargets(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	p := newPlan(q, e.queryConfig(q), tbl)
	p.group, p.tgt = parts[0].key, parts[0].tgt
	if r, err := decide(&p, e.capabilities(&p)); err != nil || r != routeSmallGroupExact {
		t.Fatalf("decide = %v, %v; want the small-group exact route", r, err)
	}
	if out, err := e.run(context.Background(), &p); !errors.As(err, &ce) {
		t.Fatalf("small-group route = %v, %v; want *block.CorruptBlockError", out.Value, err)
	}
	// Through SQL the failure stays confined to the group.
	res, err := e.ExecuteSQL(sql)
	if err != nil || len(res.Groups) != 1 || res.Groups[0].Err == "" {
		t.Fatalf("grouped statement = %+v, %v; want the group to carry the refusal", res.Groups, err)
	}
}

// groupedRows is three groups of 3 000 rows each — above smallGroupRows, so
// every group is sampled rather than scanned.
func groupedRows() []group.Row {
	r := stats.NewRNG(21)
	var rows []group.Row
	for _, k := range []string{"a", "b", "c"} {
		for i := 0; i < 3000; i++ {
			rows = append(rows, group.Row{Group: k, Value: 50 + 5*r.NormFloat64()})
		}
	}
	return rows
}

// TestGroupedScrubOneName: a grouped table's corrupt block has one name. With
// group b's second file damaged (table-wide block 3 of a, a, b, b, c, c), the
// scrub report, the engine's quarantine map, the ungrouped and the grouped
// refusals, the degraded answers' missing blocks and the per-block partials
// all use the same id, in pread and mmap tables alike.
func TestGroupedScrubOneName(t *testing.T) {
	modes := []block.OpenMode{block.ModePread}
	if block.MmapSupported() {
		modes = append(modes, block.ModeMmap)
	}
	const (
		victim    = 3
		ungrouped = "SELECT AVG(v) FROM g WITH PRECISION 0.5 SEED 3"
		grouped   = "SELECT AVG(v) FROM g GROUP BY region WITH PRECISION 0.5 SEED 3"
	)
	for _, mode := range modes {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			dir := t.TempDir()
			man, err := group.WriteFiles(dir, "region", groupedRows(), 2)
			if err != nil {
				t.Fatal(err)
			}
			g, err := group.OpenManifest(man, mode)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { g.Close() })
			if _, err := block.NewFaults(5).FlipPayloadByte(filepath.Join(dir, "g0001.001")); err != nil {
				t.Fatal(err)
			}
			cat := NewCatalog()
			cat.RegisterGrouped("g", g)
			e := New(cat)
			e.EnablePlanCache(0)

			reports, err := e.Scrub(context.Background(), 2)
			if err != nil {
				t.Fatal(err)
			}
			if c := reports[0].Report.Corrupt; len(c) != 1 || c[0].BlockID != victim {
				t.Fatalf("scrub report = %+v, want block %d", c, victim)
			}
			if qb := e.QuarantinedBlocks()["g"]; !slices.Equal(qb, []int{victim}) {
				t.Fatalf("QuarantinedBlocks = %v, want [%d]", qb, victim)
			}

			var qe *core.QuarantinedError
			if _, err := e.ExecuteSQL(ungrouped); !errors.As(err, &qe) || !slices.Equal(qe.Blocks, []int{victim}) {
				t.Fatalf("ungrouped refusal = %v, want a *QuarantinedError naming block %d", err, victim)
			}
			// Group b's own refusal, typed, names the same block.
			q, _ := query.Parse(grouped)
			tbl, _ := e.Catalog.Lookup("g")
			parts, err := groupTargets(tbl, q)
			if err != nil {
				t.Fatal(err)
			}
			p := newPlan(q, e.queryConfig(q), tbl)
			p.group, p.tgt = parts[1].key, parts[1].tgt
			if _, err := e.run(context.Background(), &p); !errors.As(err, &qe) || !slices.Equal(qe.Blocks, []int{victim}) {
				t.Fatalf("group b refusal = %v, want a *QuarantinedError naming block %d", err, victim)
			}
			res, err := e.ExecuteSQL(grouped)
			if err != nil {
				t.Fatal(err)
			}
			for _, gr := range res.Groups {
				if refused := gr.Err != ""; refused != (gr.Group == "b") {
					t.Fatalf("group %q: err %q; only group b should refuse", gr.Group, gr.Err)
				}
			}

			e.SetAllowPartial(true)
			whole, err := e.ExecuteSQL(ungrouped)
			if err != nil {
				t.Fatal(err)
			}
			if whole.Partial == nil || !slices.Equal(whole.Partial.MissingBlocks, []int{victim}) {
				t.Fatalf("ungrouped Partial = %+v, want block %d missing", whole.Partial, victim)
			}
			for i, br := range whole.Detail.PerBlock {
				if br.BlockID != i {
					t.Fatalf("ungrouped PerBlock[%d] names block %d", i, br.BlockID)
				}
			}
			p.cfg = e.queryConfig(q)
			out, err := e.run(context.Background(), &p)
			if err != nil {
				t.Fatal(err)
			}
			if out.Partial == nil || !slices.Equal(out.Partial.MissingBlocks, []int{victim}) {
				t.Fatalf("group b Partial = %+v, want block %d missing", out.Partial, victim)
			}
			if ids := []int{out.Detail.PerBlock[0].BlockID, out.Detail.PerBlock[1].BlockID}; !slices.Equal(ids, []int{2, victim}) {
				t.Fatalf("group b PerBlock ids = %v, want [2 %d]", ids, victim)
			}
			res, err = e.ExecuteSQL(grouped)
			if err != nil {
				t.Fatal(err)
			}
			if b := res.Groups[1]; b.Err != "" || b.Partial == nil || !slices.Equal(b.Partial.MissingBlocks, []int{victim}) {
				t.Fatalf("GROUP BY row b = %+v, want a degraded answer missing block %d", b, victim)
			}
		})
	}
}

// TestGroupedQuarantineOneSet: a grouped table has one quarantine set. A
// block quarantined through the table's store makes its group's GROUP BY row
// refuse, one quarantined through the group's view makes the ungrouped query
// refuse, and a view ignores a block that is not its own.
func TestGroupedQuarantineOneSet(t *testing.T) {
	const (
		ungrouped = "SELECT AVG(v) FROM g WITH PRECISION 0.5 SEED 3"
		grouped   = "SELECT AVG(v) FROM g GROUP BY region WITH PRECISION 0.5 SEED 3"
	)
	setup := func(t *testing.T) (*Engine, *group.Store) {
		g, err := group.BuildColumn("region", groupedRows(), 2)
		if err != nil {
			t.Fatal(err)
		}
		cat := NewCatalog()
		cat.RegisterGrouped("g", g)
		return New(cat), g
	}

	e, g := setup(t)
	g.Combined().Quarantine(3)
	res, err := e.ExecuteSQL(grouped)
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range res.Groups {
		if refused := gr.Err != ""; refused != (gr.Group == "b") {
			t.Fatalf("group %q: err %q, %d samples; only group b should refuse", gr.Group, gr.Err, gr.Samples)
		}
	}

	e, g = setup(t)
	a, _ := g.Group("a")
	a.Quarantine(3) // group b's block: not a's to quarantine
	if ids := g.Combined().QuarantinedIDs(); ids != nil {
		t.Fatalf("group a's view quarantined %v outside its blocks", ids)
	}
	b, _ := g.Group("b")
	b.Quarantine(3)
	var qe *core.QuarantinedError
	if _, err := e.ExecuteSQL(ungrouped); !errors.As(err, &qe) || !slices.Equal(qe.Blocks, []int{3}) {
		t.Fatalf("ungrouped query = %v, want a *QuarantinedError naming block 3", err)
	}
	if ids := a.QuarantinedIDs(); ids != nil {
		t.Fatalf("group a's view reports %v quarantined", ids)
	}
}
