package cluster

// The sharded scatter/gather battery. The contract under test: a query
// served through a ShardTable — filtered, grouped or plain, at any shard
// count, with or without a mid-query shard-owner kill when a replica is
// manifested — returns answers bit-identical (same seed) to the same
// engine running over a local store of the same blocks.
//
// CI runs the Shard* tests under -race next to the chaos battery.

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/engine"
	"isla/internal/group"
	"isla/internal/stats"
	"isla/internal/workload"
)

// startShards serves blocks over one worker per layout entry — layout[w]
// lists the indices into blocks that worker w holds, and an index in two
// entries declares a replica (the earlier entry is the primary) — and
// returns the manifest describing them plus the worker handles.
func startShards(t testing.TB, blocks []block.Block, layout [][]int) (*ShardManifest, []*Worker) {
	t.Helper()
	man := &ShardManifest{Version: 1}
	var workers []*Worker
	for _, idxs := range layout {
		sub := make([]block.Block, len(idxs))
		for j, i := range idxs {
			sub[j] = blocks[i]
		}
		w, addr := startReplica(t, sub...)
		e := ShardEntry{Addr: addr}
		for _, b := range sub {
			e.Blocks = append(e.Blocks, b.ID())
			e.Lens = append(e.Lens, b.Len())
		}
		man.Shards = append(man.Shards, e)
		workers = append(workers, w)
	}
	return man, workers
}

// contiguous splits n blocks into runs, one worker each.
func contiguous(n, shards int) [][]int {
	per := (n + shards - 1) / shards
	var layout [][]int
	for i := 0; i < n; i += per {
		var run []int
		for j := i; j < i+per && j < n; j++ {
			run = append(run, j)
		}
		layout = append(layout, run)
	}
	return layout
}

// interleaved puts block i on worker i mod shards, so no worker's batch is
// a contiguous range of the block order.
func interleaved(n, shards int) [][]int {
	layout := make([][]int, shards)
	for i := 0; i < n; i++ {
		layout[i%shards] = append(layout[i%shards], i)
	}
	return layout
}

// replicated is interleaved behind one more worker that is the primary of
// the first and the last block: a healthy query's batches then follow
// neither the manifest's entries nor ranges of the block order, and the
// interleaved owners of those two blocks are standby replicas.
func replicated(n, shards int) [][]int {
	return append([][]int{{0, n - 1}}, interleaved(n, shards)...)
}

// shardLayouts is every topology the equivalence batteries run over: 1, 2
// and 4 shards, contiguous, interleaved and with a replica.
func shardLayouts(n int) map[string][][]int {
	layouts := make(map[string][][]int)
	for _, shards := range []int{1, 2, 4} {
		layouts[fmt.Sprintf("contiguous-%d", shards)] = contiguous(n, shards)
		layouts[fmt.Sprintf("interleaved-%d", shards)] = interleaved(n, shards)
		layouts[fmt.Sprintf("replicated-%d", shards)] = replicated(n, shards)
	}
	return layouts
}

// shardManifestFor splits blocks into contiguous runs, one worker each, and
// returns the manifest describing them.
func shardManifestFor(t testing.TB, blocks []block.Block, shards int) *ShardManifest {
	t.Helper()
	man, _ := startShards(t, blocks, contiguous(len(blocks), shards))
	return man
}

// shardEngine opens the manifested table and serves it through a fresh
// engine under the name "t", with the plan cache on.
func shardEngine(t testing.TB, man *ShardManifest, dial DialFunc) *engine.Engine {
	t.Helper()
	cat := engine.NewCatalog()
	cat.RegisterSharded("t", shardTable(t, man, fastFault(), dial))
	eng := engine.New(cat)
	eng.EnablePlanCache(64)
	return eng
}

// localEngine serves the same blocks from a local store, plan cache on.
func localEngine(t testing.TB, s *block.Store) *engine.Engine {
	t.Helper()
	cat := engine.NewCatalog()
	cat.Register("t", s)
	eng := engine.New(cat)
	eng.EnablePlanCache(64)
	return eng
}

// assertSameAnswer pins bit-identity of a query answer across serving
// topologies: value, CI and the sampling diagnostics.
func assertSameAnswer(t testing.TB, sql string, want, got engine.Result) {
	t.Helper()
	if got.Value != want.Value {
		t.Fatalf("%s: value %v (sharded) vs %v (local)", sql, got.Value, want.Value)
	}
	if (got.CI == nil) != (want.CI == nil) {
		t.Fatalf("%s: CI presence differs", sql)
	}
	if got.CI != nil && (got.CI.HalfWidth != want.CI.HalfWidth || got.CI.Center != want.CI.Center) {
		t.Fatalf("%s: CI moved: %+v vs %+v", sql, got.CI, want.CI)
	}
	if got.Samples != want.Samples {
		t.Fatalf("%s: samples %d vs %d", sql, got.Samples, want.Samples)
	}
	if got.Rows != want.Rows {
		t.Fatalf("%s: rows %d vs %d", sql, got.Rows, want.Rows)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: group count %d vs %d", sql, len(got.Groups), len(want.Groups))
	}
	for i := range got.Groups {
		g, w := got.Groups[i], want.Groups[i]
		if g.Err != "" || w.Err != "" {
			t.Fatalf("%s: group %q errs %q vs %q", sql, g.Group, g.Err, w.Err)
		}
		if g.Group != w.Group || g.Value != w.Value || g.Rows != w.Rows || g.Samples != w.Samples {
			t.Fatalf("%s: group %q moved: %+v vs %+v", sql, w.Group, g, w)
		}
		if (g.CI == nil) != (w.CI == nil) || (g.CI != nil && g.CI.HalfWidth != w.CI.HalfWidth) {
			t.Fatalf("%s: group %q CI moved", sql, w.Group)
		}
	}
}

// TestShardedEquivalenceBattery runs the pushed-down pipelines — frozen
// pilot, filtered AVG/SUM/COUNT with Horvitz–Thompson accounting, and
// unfiltered COUNT — over 1, 2 and 4 shards, laid out contiguously,
// interleaved (block i on worker i mod k) and with a replica, so a phase's
// per-worker batches are not ranges of the block order, and requires every
// answer bit-identical to the local engine. Each statement runs twice per
// engine so the second pass also pins the warm plan-cache path.
func TestShardedEquivalenceBattery(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 160000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	local := localEngine(t, s)
	queries := []string{
		"SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 7",
		"SELECT SUM(v) FROM t WITH PRECISION 0.5 SEED 7",
		"SELECT COUNT(v) FROM t",
		"SELECT AVG(v) FROM t WHERE v >= 90 AND v <= 140 WITH PRECISION 0.5 SEED 5",
		"SELECT SUM(v) FROM t WHERE v > 80 AND v < 120 WITH PRECISION 0.5 SEED 11",
		"SELECT COUNT(v) FROM t WHERE v > 100 WITH PRECISION 0.5 SEED 13",
	}
	for name, layout := range shardLayouts(s.NumBlocks()) {
		man, _ := startShards(t, s.Blocks(), layout)
		remote := shardEngine(t, man, nil)
		for _, sql := range queries {
			for pass := 0; pass < 2; pass++ {
				want, err := local.ExecuteSQL(sql)
				if err != nil {
					t.Fatalf("local %s: %v", sql, err)
				}
				got, err := remote.ExecuteSQL(sql)
				if err != nil {
					t.Fatalf("%s, %s: %v", name, sql, err)
				}
				assertSameAnswer(t, name+": "+sql, want, got)
			}
		}
	}
}

// TestShardedGroupedEquivalence pins the grouped push-down: a manifest
// whose groups mirror a local group store's block layout answers GROUP BY
// (plain and filtered) bit-identically per group, over every layout of
// shardLayouts, cold and warm. Block ids differ —
// group-local locally, global on the shards — which must not matter,
// because seeds and merges key on block order, never id.
func TestShardedGroupedEquivalence(t *testing.T) {
	r := []group.Row{}
	mk := func(key string, mu float64, n int, seed uint64) {
		s, _, err := workload.Normal(mu, 15, n, 1, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range s.Blocks() {
			for _, v := range b.(*block.MemBlock).Data() {
				r = append(r, group.Row{Group: key, Value: v})
			}
		}
	}
	mk("east", 90, 30000, 1)
	mk("west", 110, 40000, 2)
	mk("south", 70, 20000, 3)
	gs, err := group.BuildColumn("region", r, 3)
	if err != nil {
		t.Fatal(err)
	}

	cat := engine.NewCatalog()
	cat.RegisterGrouped("t", gs)
	local := engine.New(cat)
	local.EnablePlanCache(64)
	// Every group is far above the engine's small-group size, so the local
	// side samples just as the shard side (which cannot scan) must.

	// Rebuild the same blocks with global ids and manifest the groups in the
	// local stores' block order.
	var groups []ShardGroup
	var all []block.Block
	for _, key := range gs.Groups() {
		s, err := gs.Group(key)
		if err != nil {
			t.Fatal(err)
		}
		g := ShardGroup{Key: key}
		for _, b := range s.Blocks() {
			id := len(all)
			all = append(all, block.NewMemBlock(id, b.(*block.MemBlock).Data()))
			g.Blocks = append(g.Blocks, id)
		}
		groups = append(groups, g)
	}

	queries := []string{
		"SELECT AVG(v) FROM t GROUP BY region WITH PRECISION 0.5 SEED 7",
		"SELECT SUM(v) FROM t WHERE v >= 60 AND v <= 120 GROUP BY region WITH PRECISION 0.5 SEED 9",
		"SELECT COUNT(v) FROM t WHERE v > 95 GROUP BY region WITH PRECISION 0.5 SEED 4",
	}
	for name, layout := range shardLayouts(len(all)) {
		man, _ := startShards(t, all, layout)
		man.Column, man.Groups = "region", groups
		remote := shardEngine(t, man, nil)
		for _, sql := range queries {
			for pass := 0; pass < 2; pass++ { // cold, then warm from the plan cache
				want, err := local.ExecuteSQL(sql)
				if err != nil {
					t.Fatalf("local %s: %v", sql, err)
				}
				got, err := remote.ExecuteSQL(sql)
				if err != nil {
					t.Fatalf("%s, %s: %v", name, sql, err)
				}
				assertSameAnswer(t, name+": "+sql, want, got)
			}
		}
	}
}

// TestShardChaosKillOwnerMidBatch kills a shard owner in the middle of a
// query — on its pilot batch, on either filter-pilot batch, on its
// calculation batch — with a manifested replica alive, and requires the
// exact healthy (and local) answer bits after failover. Only the dead
// worker's blocks move: the other owner sees one call per phase as on a
// healthy run, and the replica one call per phase from the kill on.
func TestShardChaosKillOwnerMidBatch(t *testing.T) {
	const (
		point    = "SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 21"
		filtered = "SELECT AVG(v) FROM t WHERE v >= 85 AND v <= 130 WITH PRECISION 0.5 SEED 21"
	)
	cases := []struct {
		name   string
		sql    string
		phases int // batches per worker on a healthy cold run
		killAt int // the owner's data-path call ordinal
	}{
		{"mid-pilot-batch", point, 2, 1},
		{"mid-calc-batch", point, 2, 2},
		{"mid-filter-probe-batch", filtered, 3, 1},
		{"mid-filter-pilot-batch", filtered, 3, 2},
		{"mid-filter-calc-batch", filtered, 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _, err := workload.Normal(100, 20, 120000, 6, 17)
			if err != nil {
				t.Fatal(err)
			}
			// Owner of blocks 0-2, owner of blocks 3-5, replica of the first.
			man, workers := startShards(t, s.Blocks(), [][]int{{0, 1, 2}, {3, 4, 5}, {0, 1, 2}})
			owner, other, replica := man.Shards[0].Addr, man.Shards[1].Addr, man.Shards[2].Addr

			want, err := localEngine(t, s).ExecuteSQL(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			healthy, err := shardEngine(t, man, nil).ExecuteSQL(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswer(t, tc.sql, want, healthy)

			f := NewFaults(99)
			f.Script(owner, tc.killAt, func() { workers[0].Close() })
			got, err := shardEngine(t, man, f.Wrap(DialTCP)).ExecuteSQL(tc.sql)
			if err != nil {
				t.Fatalf("failover run: %v", err)
			}
			assertSameAnswer(t, tc.sql, want, got)
			if got.Partial != nil {
				t.Fatalf("replica covered every block, Partial = %+v", got.Partial)
			}
			if n := f.Calls(other); n != tc.phases {
				t.Fatalf("the surviving owner saw %d calls, want %d (one per phase)", n, tc.phases)
			}
			if n, want := f.Calls(replica), tc.phases-tc.killAt+1; n != want {
				t.Fatalf("the replica saw %d calls, want %d (one per phase from the kill on)", n, want)
			}
		})
	}
}

// TestShardRefusesUnsupported pins the typed refusals — exact scans,
// baseline estimators and time budgets cannot be pushed down — and that
// nothing else is refused: a <> conjunct is data like any other and answers
// what the local engine answers.
func TestShardRefusesUnsupported(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 40000, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	man := shardManifestFor(t, s.Blocks(), 2)
	eng := shardEngine(t, man, nil)
	for _, sql := range []string{
		"SELECT AVG(v) FROM t METHOD EXACT",
		"SELECT AVG(v) FROM t METHOD US WITH PRECISION 0.5",
		"SELECT AVG(v) FROM t WITH TIME 0.5",
	} {
		if _, err := eng.ExecuteSQL(sql); !errors.Is(err, engine.ErrShardUnsupported) {
			t.Fatalf("%s: err = %v, want ErrShardUnsupported", sql, err)
		}
	}
	const ne = "SELECT AVG(v) FROM t WHERE v <> 3 WITH PRECISION 0.5"
	want, err := localEngine(t, s).ExecuteSQL(ne)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.ExecuteSQL(ne)
	if err != nil {
		t.Fatalf("%s: %v", ne, err)
	}
	assertSameAnswer(t, ne, want, got)
	// Unfiltered COUNT stays metadata-exact.
	res, err := eng.ExecuteSQL("SELECT COUNT(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Value) != s.TotalLen() {
		t.Fatalf("COUNT = %v, want %d", res.Value, s.TotalLen())
	}
}

// TestShardedNotEqualGoldens is the sharded leg of the <> battery
// (internal/engine's TestNotEqualBattery holds the local legs and records
// how the goldens were captured at the commit that still refused <> on
// shards): the same three statements over every layout of shardLayouts, cold
// and warm, must return the parent's local answers bit for bit.
func TestShardedNotEqualGoldens(t *testing.T) {
	r := stats.NewRNG(7)
	data := make([]float64, 200_000)
	for i := range data {
		data[i] = math.Round(100 + 20*r.NormFloat64())
	}
	s := block.Partition(data, 8)
	goldens := []struct {
		sql     string
		value   float64
		samples int64
	}{
		{"SELECT AVG(v) FROM t WHERE v <> 100 WITH PRECISION 0.5 SEED 3", 100.55334331303578, 6566},
		{"SELECT AVG(v) FROM t WHERE v > 90 AND v <> 100 WITH PRECISION 0.5 SEED 3", 110.98747517459502, 4826},
		{"SELECT COUNT(*) FROM t WHERE v <> 100 WITH PRECISION 0.5 SEED 3", 196465.62924467016, 6566},
	}
	local := localEngine(t, s)
	for name, layout := range shardLayouts(s.NumBlocks()) {
		man, _ := startShards(t, s.Blocks(), layout)
		remote := shardEngine(t, man, nil)
		for _, g := range goldens {
			for pass := 0; pass < 2; pass++ {
				got, err := remote.ExecuteSQL(g.sql)
				if err != nil {
					t.Fatalf("%s, %s: %v", name, g.sql, err)
				}
				if got.Value != g.value || got.Samples != g.samples {
					t.Fatalf("%s, %s (pass %d): %v over %d samples, golden %v over %d",
						name, g.sql, pass, got.Value, got.Samples, g.value, g.samples)
				}
				want, err := local.ExecuteSQL(g.sql)
				if err != nil {
					t.Fatal(err)
				}
				assertSameAnswer(t, name+": "+g.sql, want, got)
			}
		}
	}
}

// TestShardTableValidatesWorkers pins the admission contract: a worker
// that does not serve its manifested blocks (or serves them at the wrong
// length) is rejected at open.
func TestShardTableValidatesWorkers(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 10000, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	blocks := s.Blocks()
	addr := startWorker(t, blocks[:2]...)
	man := &ShardManifest{Version: 1, Shards: []ShardEntry{{
		Addr:   addr,
		Blocks: []int{0, 1, 2}, // block 2 lives elsewhere
		Lens:   []int64{blocks[0].Len(), blocks[1].Len(), blocks[2].Len()},
	}}}
	if _, err := NewShardTable(man, core.DefaultConfig(), fastFault(), nil); err == nil ||
		!strings.Contains(err.Error(), "does not serve block 2") {
		t.Fatalf("missing block accepted: %v", err)
	}
	man.Shards[0].Blocks = []int{0, 1}
	man.Shards[0].Lens = []int64{blocks[0].Len(), blocks[1].Len() + 1}
	if _, err := NewShardTable(man, core.DefaultConfig(), fastFault(), nil); err == nil ||
		!strings.Contains(err.Error(), "manifest mismatch") {
		t.Fatalf("wrong length accepted: %v", err)
	}
}
