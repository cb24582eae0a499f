package cluster

// The sharded scatter/gather tests. That a query served through a
// ShardTable — filtered, grouped or plain, at any shard count, with or
// without a mid-query shard-owner kill when a replica is manifested —
// answers bit-identically (same seed) to a local store of the same blocks is
// the root package's TestInvarianceMatrix, and so are the typed refusals of
// METHOD EXACT and US (its method-* rows); here are the layouts' helpers,
// the admission check, the plan-cache sharing and the per-phase call counts.
//
// CI runs the Shard* tests under -race next to the chaos battery.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/engine"
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

// shardLayouts is every topology the conformance test runs over: 1, 2 and 4
// shards, contiguous, interleaved and with a replica.
func shardLayouts(n int) map[string][][]int {
	layouts := make(map[string][][]int)
	for _, shards := range []int{1, 2, 4} {
		layouts[fmt.Sprintf("contiguous-%d", shards)] = contiguous(n, shards)
		layouts[fmt.Sprintf("interleaved-%d", shards)] = interleaved(n, shards)
		layouts[fmt.Sprintf("replicated-%d", shards)] = replicated(n, shards)
	}
	return layouts
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

// TestShardedSampleFractionSharesPilot: on a sharded table, as on a local
// one, a statement that differs from a cached one only in SAMPLEFRACTION
// reuses its pilot — the fraction rescales Eq. 1 after the pilot — and
// answers with a cache-less engine's bits, unfiltered and filtered.
func TestShardedSampleFractionSharesPilot(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 160000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	man, _ := startShards(t, s.Blocks(), shardLayouts(s.NumBlocks())["interleaved-2"])
	cached := shardEngine(t, man, nil)
	cold := engine.New(cached.Catalog)
	for _, where := range []string{"", "WHERE v >= 90 AND v <= 140 "} {
		full := "SELECT AVG(v) FROM t " + where + "WITH PRECISION 0.5 SEED 7"
		fraction := "SELECT AVG(v) FROM t " + where + "WITH PRECISION 0.5 SAMPLEFRACTION 0.25 SEED 7"
		if _, err := cached.ExecuteSQL(full); err != nil {
			t.Fatalf("%s: %v", full, err)
		}
		got, err := cached.ExecuteSQL(fraction)
		if err != nil {
			t.Fatalf("%s: %v", fraction, err)
		}
		if !got.PilotCached {
			t.Fatalf("%s: the pilot of the full-fraction statement was not reused", fraction)
		}
		want, err := cold.ExecuteSQL(fraction)
		if err != nil {
			t.Fatalf("%s: %v", fraction, err)
		}
		got.PilotCached = false
		if !reflect.DeepEqual(got.Answer, want.Answer) {
			t.Fatalf("%s: shared pilot answered %+v, cache-less engine %+v", fraction, got.Answer, want.Answer)
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
			got, err := shardEngine(t, man, f.Wrap(dialTCP)).ExecuteSQL(tc.sql)
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
