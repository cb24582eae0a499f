package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/query"
	"isla/internal/stats"
	"isla/internal/workload"
)

// TestPlanCacheWarmBitIdentical is the cache's headline contract: a repeat
// query on the same table and seed returns a bit-identical answer, skips
// the pilot phase (PilotCached diagnostic), and matches the library's
// pipeline exactly.
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
	if cold.PilotSize == 0 || cold.PilotCached {
		t.Fatalf("cold run: pilot size %d, cached %v", cold.PilotSize, cold.PilotCached)
	}
	warm, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if warm.PilotSize != cold.PilotSize || !warm.PilotCached {
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

	// Three-way: the cache-enabled engine path must be bit-identical to
	// the library's pipeline with the same knobs.
	cfg := core.DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 9
	lib, err := core.Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Estimate != cold.Value || lib.TotalSamples != cold.Samples {
		t.Fatalf("engine path %v/%d, library path %v/%d",
			cold.Value, cold.Samples, lib.Estimate, lib.TotalSamples)
	}

	st := e.PlanCache().Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("cache stats %+v", st)
	}
	// The warm run resumed the pilot the cache holds, the cold one froze
	// it: resumed with a destination, both give the same per-block answers.
	q, _ := query.Parse(sql)
	tbl, _ := cat.Lookup("sales")
	p := newPlan(q, e.queryConfig(q), tbl)
	p.tgt = target{s: s}
	if !reflect.DeepEqual(partials(t, e, &p), partials(t, New(cat), &p)) {
		t.Fatal("per-block answers differ between warm and cold")
	}
}

// partials resumes the plan's frozen pilot — from e's plan cache when it has
// one — on the plan's local target with a destination, and returns the
// per-block partials the calculation phase folds into its answer.
func partials(t *testing.T, e *Engine, p *plan) []core.BlockResult {
	t.Helper()
	ctx := context.Background()
	fp, _, err := e.frozenPilot(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]core.BlockResult, p.tgt.s.NumBlocks())
	if _, err := core.EstimateFrozen(ctx, p.tgt.source(p.cfg), p.cfg, fp, blocks); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// sameBits reports whether two answers carry the same bits, whether or not
// their pilots came from the cache.
func sameBits(a, b Answer) bool {
	a.PilotCached, b.PilotCached = false, false
	return reflect.DeepEqual(a, b)
}

// TestPlanCacheKeying: distinct seeds build distinct pilots; distinct
// precision, confidence and sample-fraction targets share one, and the
// shared pilot answers with a cache-less engine's bits.
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
	const fraction = "SELECT AVG(v) FROM t WITH PRECISION 0.5 SAMPLEFRACTION 0.5 SEED 1"
	got, err := e.ExecuteSQL(fraction)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.PlanCache().Stats(); st.Misses != 1 || st.Hits != 3 || !got.PilotCached {
		t.Fatalf("a new sample fraction must share the pilot: %+v", st)
	}
	cold := New(cat)
	want, err := cold.ExecuteSQL(fraction)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got.Answer, want.Answer) {
		t.Fatalf("shared pilot answered %+v, cache-less engine %+v", got.Answer, want.Answer)
	}
	run("SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 2") // new seed: new pilot
	if st := e.PlanCache().Stats(); st.Misses != 2 {
		t.Fatalf("a new seed must key separately: %+v", st)
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
	if after.PilotCached {
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
// frozen pilot — the repeat query reports PilotCached — and, when the budget
// finishes every round, the cache off, cold and warm answer the same bits.
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
	off, err := New(cat).ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if cold.PilotSize == 0 || cold.PilotCached {
		t.Fatalf("cold time-bound run: pilot size %d, cached %v", cold.PilotSize, cold.PilotCached)
	}
	warm, err := e.ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if warm.PilotSize != cold.PilotSize || !warm.PilotCached {
		t.Fatal("warm time-bound run did not reuse the pilot")
	}
	for _, r := range []Result{cold, warm} {
		if off.Rounds == 5 && r.Rounds == 5 && !sameBits(r.Answer, off.Answer) {
			t.Fatalf("cached run %v over %d samples, cache off %v over %d", r.Value, r.Samples, off.Value, off.Samples)
		}
	}
}

// gateBlock holds the store's first draw until gate closes, after closing
// entered.
type gateBlock struct {
	block.Block
	once          *sync.Once
	entered, gate chan struct{}
}

func (b *gateBlock) SampleInto(r *stats.RNG, dst []float64) error {
	b.once.Do(func() {
		close(b.entered)
		<-b.gate
	})
	return block.SampleInto(b.Block, r, dst)
}

// TestPlanCacheJoinerSurvivesBuilderCancel: two concurrent statements share
// one pilot flight, and the first, which runs it, is cancelled mid-pilot.
// That cancellation is the first statement's alone: the second answers the
// bits of a run that was never interrupted.
func TestPlanCacheJoinerSurvivesBuilderCancel(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 100000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 8"
	plain := NewCatalog()
	plain.Register("t", s)
	want, err := New(plain).ExecuteSQL(sql)
	if err != nil {
		t.Fatal(err)
	}

	gated := &gateBlock{once: new(sync.Once), entered: make(chan struct{}), gate: make(chan struct{})}
	blocks := make([]block.Block, s.NumBlocks())
	for i, b := range s.Blocks() {
		g := *gated
		g.Block = b
		blocks[i] = &g
	}
	cat := NewCatalog()
	cat.Register("t", block.NewStore(blocks...))
	e := New(cat)
	e.EnablePlanCache(0)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := make(chan error, 1)
	go func() {
		_, err := e.ExecuteSQLContext(ctx, sql)
		first <- err
	}()
	<-gated.entered
	type outcome struct {
		res Result
		err error
	}
	second := make(chan outcome, 1)
	go func() {
		res, err := e.ExecuteSQLContext(context.Background(), sql)
		second <- outcome{res, err}
	}()
	// The second statement waits on the first's flight: parked in the plan
	// cache's select, where the first is parked in its draw.
	buf := make([]byte, 1<<20)
	for joined, deadline := false, time.Now().Add(10*time.Second); !joined; time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			joined = joined || strings.Contains(g, "[select") && strings.Contains(g, "plancache.(*Cache).Get(")
		}
		if !joined && time.Now().After(deadline) {
			t.Fatal("the second statement never joined the first's pilot flight")
		}
	}
	cancel()
	close(gated.gate)
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled statement returned %v, want context.Canceled", err)
	}
	got := <-second
	if got.err != nil {
		t.Fatalf("the joined statement failed with %v", got.err)
	}
	if !sameBits(got.res.Answer, want.Answer) {
		t.Fatalf("joined statement %v over %d samples, an uninterrupted run %v over %d",
			got.res.Value, got.res.Samples, want.Value, want.Samples)
	}
}

// TestEmptyBlocksAnswerAlike: 8 rows in 10 blocks leaves two blocks empty.
// The table answers, and core.Estimate, a cache-less engine and a cold and a
// warm cached one all return the same bits.
func TestEmptyBlocksAnswerAlike(t *testing.T) {
	data := []float64{12, 7, 9, 15, 11, 8, 10, 13}
	s := block.Partition(data, 10)
	cfg := core.DefaultConfig()
	cfg.Seed = 3
	lib, err := core.Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Estimate < 7 || lib.Estimate > 15 {
		t.Fatalf("estimate %v outside the data's range", lib.Estimate)
	}
	cat := NewCatalog()
	cat.Register("t", s)
	off, on := New(cat), New(cat)
	on.EnablePlanCache(0)
	const sql = "SELECT AVG(v) FROM t WITH PRECISION 0.1 SEED 3"
	for _, run := range []struct {
		name string
		e    *Engine
	}{{"cache off", off}, {"cold", on}, {"warm", on}} {
		res, err := run.e.ExecuteSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if res.Value != lib.Estimate || res.Samples != lib.TotalSamples {
			t.Fatalf("%s: %v over %d samples, core.Estimate %v over %d",
				run.name, res.Value, res.Samples, lib.Estimate, lib.TotalSamples)
		}
	}
}

// TestPlanCacheKeysPilotSize: the pilot-size override moves the pilot, so it
// keys the cache. After SetBaseConfig changes it, a warm engine answers what
// a cold engine built with the new size answers — filtered and unfiltered —
// instead of resuming the pilot frozen under the old size.
func TestPlanCacheKeysPilotSize(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 200000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cachedEngine := func(pilotSize int64) *Engine {
		cat := NewCatalog()
		cat.Register("t", s)
		e := New(cat)
		e.EnablePlanCache(0)
		cfg := e.BaseConfig()
		cfg.PilotSize = pilotSize
		e.SetBaseConfig(cfg)
		return e
	}
	queries := []string{
		"SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 3",
		"SELECT AVG(v) FROM t WHERE v > 110 WITH PRECISION 0.5 SEED 3",
	}
	warm := cachedEngine(0)
	before := make([]Result, len(queries))
	for i, sql := range queries {
		if before[i], err = warm.ExecuteSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	cfg := warm.BaseConfig()
	cfg.PilotSize = 300
	warm.SetBaseConfig(cfg)
	cold := cachedEngine(300)
	for i, sql := range queries {
		got, err := warm.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cold.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || got.Samples != want.Samples {
			t.Fatalf("%s: warm engine %v over %d samples, cold engine %v over %d",
				sql, got.Value, got.Samples, want.Value, want.Samples)
		}
		if got.Value == before[i].Value {
			t.Fatalf("%s: the pilot size did not move the answer; the test proves nothing", sql)
		}
	}
	if st := warm.PlanCache().Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("cache stats %+v, want every pilot size keyed apart", st)
	}
}
