package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"isla/internal/block"
	"isla/internal/cluster"
	"isla/internal/core"
	"isla/internal/engine"
	"isla/internal/workload"
)

// stubShard satisfies engine.Sharded over a local store — enough surface
// for the HTTP layer's table listing and the engine's shard routing,
// without spinning real RPC workers.
type stubShard struct{ s *block.Store }

func (sh stubShard) Rows() int64 { return sh.s.TotalLen() }
func (sh stubShard) Source(cfg core.Config) core.BlockSource {
	return core.LocalExecutor{S: sh.s}.Source(cfg)
}
func (sh stubShard) GroupColumn() string { return "" }
func (sh stubShard) GroupKeys() []string { return nil }
func (sh stubShard) GroupSource(string, core.Config) (core.BlockSource, error) {
	return nil, engine.ErrShardUnsupported
}

// TestTablesListsShardedTable is the regression for a nil-pointer panic:
// GET /tables dereferenced tbl.Store, which sharded tables don't have.
func TestTablesListsShardedTable(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 100000, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	catalog := engine.NewCatalog()
	catalog.RegisterSharded("remote", stubShard{s: s})
	eng := engine.New(catalog)
	eng.EnablePlanCache(8)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var infos []TableInfo
	resp := getJSON(t, ts.URL+"/tables", &infos)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/tables status %d", resp.StatusCode)
	}
	if len(infos) != 1 || infos[0].Name != "remote" || infos[0].Rows != 100000 ||
		infos[0].Blocks != 4 || !infos[0].Sharded {
		t.Fatalf("tables = %+v", infos)
	}

	// The sharded table answers queries through the same endpoint.
	resp, body := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT AVG(v) FROM remote WITH PRECISION 0.5 SEED 3"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
}

// TestShardedLostBlocksAnswer503 is the wire mapping of a sharded table
// that cannot answer: blocks with no live replica are unavailable data
// (503, like a quarantined local table), not a malformed request (400).
// Both refusals are covered — the phase that may not degrade losing a
// block, and the calculation phase of a degrading table losing every block.
func TestShardedLostBlocksAnswer503(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 80000, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		allowPartial bool
		warm         bool // freeze the pilot before the workers die
		kill         int  // workers to kill, from the last
	}{
		{"one block set lost, AllowPartial off", false, false, 1},
		{"every block lost, AllowPartial on", true, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			man := &cluster.ShardManifest{Version: 1}
			var workers []*cluster.Worker
			for _, part := range [][]block.Block{s.Blocks()[:2], s.Blocks()[2:]} {
				w := cluster.NewWorker(part...)
				l, err := w.ListenAndServe("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { w.Close() })
				e := cluster.ShardEntry{Addr: l.Addr().String()}
				for _, b := range part {
					e.Blocks = append(e.Blocks, b.ID())
					e.Lens = append(e.Lens, b.Len())
				}
				man.Shards = append(man.Shards, e)
				workers = append(workers, w)
			}
			fault := cluster.Config{CallTimeout: 2 * time.Second, MaxRetries: -1, BaseBackoff: -1,
				ProbeInterval: -1}
			st, err := cluster.NewShardTable(man, core.DefaultConfig(), fault, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			catalog := engine.NewCatalog()
			catalog.RegisterSharded("remote", st)
			eng := engine.New(catalog)
			eng.EnablePlanCache(8)
			eng.SetAllowPartial(tc.allowPartial)
			srv, err := New(Config{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)

			req := QueryRequest{SQL: "SELECT AVG(v) FROM remote WITH PRECISION 0.5 SEED 3"}
			if tc.warm {
				if resp, body := postQuery(t, ts.URL, req); resp.StatusCode != http.StatusOK {
					t.Fatalf("healthy query status %d: %s", resp.StatusCode, body)
				}
			}
			for _, w := range workers[len(workers)-tc.kill:] {
				w.Close()
			}
			resp, body := postQuery(t, ts.URL, req)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
			}
			var stats StatsResponse
			getJSON(t, ts.URL+"/stats", &stats)
			if stats.Errored != 1 {
				t.Fatalf("errored = %d, want 1", stats.Errored)
			}
		})
	}
}
