package isla

// End-to-end integration tests crossing every layer: data generation →
// binary block files on disk → catalog → the query dialect → each execution
// mode (plain, parallel, cluster, online, time-bound) — asserting the modes
// agree with each other and with the exact scan.

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"isla/internal/stats"
	"isla/internal/workload"
)

func TestEndToEndFileBackedPipeline(t *testing.T) {
	dir := t.TempDir()

	// 1. Generate and persist a dataset as binary block files.
	data := normalData(400000, 31)
	store, err := WriteFiles(filepath.Join(dir, "sales"), data, 8)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Reopen from disk as a fresh store.
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = filepath.Join(dir, "sales") + "." + padded(i)
	}
	reopened, err := OpenFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.TotalLen() != store.TotalLen() {
		t.Fatalf("reopened %d rows, wrote %d", reopened.TotalLen(), store.TotalLen())
	}

	// 3. Query through the engine.
	db := NewDB()
	db.RegisterStore("sales", reopened)
	exact, err := db.Query("SELECT AVG(v) FROM sales METHOD EXACT")
	if err != nil {
		t.Fatal(err)
	}
	approx, err := db.Query("SELECT AVG(v) FROM sales WITH PRECISION 0.3 SEED 8")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(approx.Value-exact.Value) > 0.6 {
		t.Fatalf("approx %v vs exact %v", approx.Value, exact.Value)
	}

	// 4. SUM and COUNT must be mutually consistent.
	sum, err := db.Query("SELECT SUM(v) FROM sales WITH PRECISION 0.3 SEED 8")
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := db.Query("SELECT COUNT(*) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Value/cnt.Value-approx.Value) > 1e-9 {
		t.Fatal("SUM/COUNT inconsistent with AVG")
	}
}

func padded(i int) string {
	return string([]byte{'0', '0', byte('0' + i)})
}

func TestExecutionModesAgree(t *testing.T) {
	store := Partition(normalData(300000, 37), 10)
	cfg := DefaultConfig()
	cfg.Precision = 0.4
	cfg.Seed = 17

	seq, err := Estimate(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := EstimateParallel(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Estimate != par.Estimate {
		t.Fatalf("parallel %v != sequential %v", par.Estimate, seq.Estimate)
	}

	// The RPC cluster is a sharded table: the frozen-pilot pipeline a local
	// DB runs with its plan cache on, each phase scattered to the worker —
	// so the two agree bit for bit.
	const sql = "SELECT AVG(v) FROM t WITH PRECISION 0.4 SEED 17"
	local := NewDB()
	local.EnablePlanCache(0)
	local.RegisterStore("t", store)
	loc, err := local.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(store.Blocks()...)
	l, err := w.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	man, err := ShardManifestFromWorkers([]string{l.Addr().String()}, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	remote := NewDB()
	st, err := OpenShardTable(man, remote.BaseConfig(), ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	remote.RegisterSharded("t", st)
	clu, err := remote.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if clu.Value != loc.Value || clu.Samples != loc.Samples || clu.CI.HalfWidth != loc.CI.HalfWidth {
		t.Fatalf("cluster %v (±%v, %d samples) vs local %v (±%v, %d samples)",
			clu.Value, clu.CI.HalfWidth, clu.Samples, loc.Value, loc.CI.HalfWidth, loc.Samples)
	}
	if math.Abs(clu.Value-seq.Estimate) > 2*cfg.Precision {
		t.Fatalf("cluster %v vs sequential %v", clu.Value, seq.Estimate)
	}

	// Online refinement converges to the same neighbourhood.
	sess, err := NewSession(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	for i := 0; i < 3; i++ {
		if snap, err = sess.Refine(1); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(snap.Result.Estimate-seq.Estimate) > 2*cfg.Precision {
		t.Fatalf("online %v vs sequential %v", snap.Result.Estimate, seq.Estimate)
	}

	// Time-bound mode lands within its own achieved precision band.
	tb, err := EstimateTimeBound(store, cfg, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tb.Estimate-seq.Estimate) > 5*tb.AchievedPrecision {
		t.Fatalf("time-bound %v vs sequential %v (achieved e=%v)",
			tb.Estimate, seq.Estimate, tb.AchievedPrecision)
	}
}

func TestEndToEndNonIIDQueryPath(t *testing.T) {
	s, truth, err := workload.PaperNonIID(60000, 41)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	cfg.PerBlockBounds = true
	cfg.VarianceAwareRates = true
	cfg.Seed = 19

	db := NewDB()
	db.SetBaseConfig(cfg)
	db.RegisterStore("global", s)
	res, err := db.Query("SELECT AVG(v) FROM global WITH PRECISION 0.5 SEED 19")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-truth) > 2*cfg.Precision {
		t.Fatalf("non-iid query %v vs truth %v", res.Value, truth)
	}
}

func TestEndToEndGroupedWorkload(t *testing.T) {
	// Group rows generated from distinct distributions; grouped AVG must
	// recover each group's mean through the public API.
	r := stats.NewRNG(47)
	var rows []GroupRow
	groups := map[string]stats.Normal{
		"retail":    {Mu: 120, Sigma: 25},
		"wholesale": {Mu: 80, Sigma: 10},
	}
	for name, d := range groups {
		for i := 0; i < 60000; i++ {
			rows = append(rows, GroupRow{Group: name, Value: d.Sample(r)})
		}
	}
	db := NewDB()
	if err := db.RegisterGroupedRows("orders", "channel", rows, 6); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT AVG(v) FROM orders GROUP BY channel WITH PRECISION 1 SEED 23")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != len(groups) {
		t.Fatalf("groups = %+v", res.Groups)
	}
	for _, gr := range res.Groups {
		want := groups[gr.Group].Mu
		if gr.Err != "" || math.Abs(gr.Value-want) > 2 {
			t.Errorf("group %s: %v vs %v (%s)", gr.Group, gr.Value, want, gr.Err)
		}
	}
}
