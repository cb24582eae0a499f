package cluster

import (
	"fmt"
	"testing"

	"isla/internal/block"
	"isla/internal/engine"
	"isla/internal/group"
	"isla/internal/workload"
)

// TestCacheStateInvariance is the determinism contract's cache leg: for a
// fixed seed an AVG, a SUM, a filtered and a grouped statement answer the
// same bits with the plan cache off, cold and warm, on a local grouped table
// and on the same blocks behind every layout of shardLayouts, at one worker
// and at four. The cache decides whether the pilot runs, never which
// estimator answers.
func TestCacheStateInvariance(t *testing.T) {
	var rows []group.Row
	for i, g := range []struct {
		key string
		mu  float64
		n   int
	}{{"east", 90, 30000}, {"south", 70, 20000}, {"west", 110, 40000}} {
		s, _, err := workload.Normal(g.mu, 15, g.n, 1, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range s.Block(0).(*block.MemBlock).Data() {
			rows = append(rows, group.Row{Group: g.key, Value: v})
		}
	}
	gs, err := group.BuildColumn("region", rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The grouped table's block ids are table-wide, so its blocks serve
	// the shards as they are and the groups manifest by id.
	blocks := gs.Combined().Blocks()
	var groups []ShardGroup
	for _, key := range gs.Groups() {
		s, err := gs.Group(key)
		if err != nil {
			t.Fatal(err)
		}
		g := ShardGroup{Key: key}
		for _, b := range s.Blocks() {
			g.Blocks = append(g.Blocks, b.ID())
		}
		groups = append(groups, g)
	}

	queries := []string{
		"SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 7",
		"SELECT SUM(v) FROM t WITH PRECISION 0.5 SEED 8",
		"SELECT AVG(v) FROM t WHERE v >= 60 AND v <= 120 WITH PRECISION 0.5 SEED 9",
		"SELECT AVG(v) FROM t GROUP BY region WITH PRECISION 0.5 SEED 5",
	}
	catalogs := map[string]func() *engine.Catalog{
		"local": func() *engine.Catalog {
			cat := engine.NewCatalog()
			cat.RegisterGrouped("t", gs)
			return cat
		},
	}
	for name, layout := range shardLayouts(len(blocks)) {
		man, _ := startShards(t, blocks, layout)
		man.Column, man.Groups = "region", groups
		catalogs[name] = func() *engine.Catalog {
			cat := engine.NewCatalog()
			cat.RegisterSharded("t", shardTable(t, man, fastFault(), nil))
			return cat
		}
	}

	// The reference: local, sequential, no cache.
	ref := engine.New(catalogs["local"]())
	want := make([]engine.Result, len(queries))
	for i, sql := range queries {
		if want[i], err = ref.ExecuteSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for name, catalog := range catalogs {
		for _, workers := range []int{1, 4} {
			for _, cached := range []bool{false, true} {
				eng := engine.New(catalog())
				eng.SetWorkers(workers)
				passes := []string{"off"}
				if cached {
					eng.EnablePlanCache(0)
					passes = []string{"cold", "warm"}
				}
				for i, sql := range queries {
					for _, pass := range passes {
						label := fmt.Sprintf("%s workers=%d cache %s: %s", name, workers, pass, sql)
						got, err := eng.ExecuteSQL(sql)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						assertSameAnswer(t, label, want[i], got)
						if hit, ok := pilotCached(got); ok && hit != (pass == "warm") {
							t.Fatalf("%s: pilot cached = %v", label, hit)
						}
					}
				}
			}
		}
	}
}

// pilotCached reports whether a result's pre-estimation came from the plan
// cache — every group's, for a grouped one; ok is false when the result has
// no pre-estimation (an exact answer).
func pilotCached(r engine.Result) (hit, ok bool) {
	if len(r.Groups) == 0 {
		return r.PilotCached, !r.Exact
	}
	for _, g := range r.Groups {
		if !g.PilotCached {
			return false, true
		}
	}
	return true, true
}
