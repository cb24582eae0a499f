package isla

// The determinism contract as one table: for a fixed seed an answer is
// bit-identical wherever it is computed. Each row is a statement or a
// library call over one table, run by TestInvarianceMatrix or, for the six
// in rowTests, by the test it is named for; each column a target the
// table is served from — the in-memory store, pread and mmap files, the
// scalar oracle, and 1, 2 and 4 loopback shards laid out contiguously,
// interleaved and with a replica, the replicated ones also with the
// replica's primary killed mid-query. Every target is crossed with the plan
// cache (off, cold, warm) and the worker count (0, 1, 4) by a covering design
// that holds every pair of the three axes. The reference cell is mem,
// workers 0, cache off; every other cell must reproduce it bit for bit, or
// return the row's one typed refusal. TestInvarianceGolden pins the
// reference cell's bits across releases.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"isla/internal/block"
	"isla/internal/cluster"
	"isla/internal/core"
	"isla/internal/engine"
	"isla/internal/group"
	"isla/internal/plancache"
	"isla/internal/stats"
	"isla/internal/workload"
)

// scalarBlock is the test-only scalar sampler — the pre-batching path as an
// oracle: the block's values read once, then one Int63n per draw. A filtered
// draw gathers through SampleInto too, so it meets the oracle as well.
type scalarBlock struct {
	block.Block
	data []float64
}

func (b scalarBlock) SampleInto(r *stats.RNG, dst []float64) error {
	if len(b.data) == 0 && len(dst) > 0 {
		return block.ErrEmptyBlock
	}
	for i := range dst {
		dst[i] = b.data[r.Int63n(int64(len(b.data)))]
	}
	return nil
}

// target is one column: a local store kind, or a shard layout over n blocks
// (layout[w] lists the blocks worker w serves; a block in two entries has a
// replica, the earlier entry its primary). A kill target kills worker 0 — the
// primary of the first and the last block, whose interleaved owners are
// standby replicas — mid-cell.
type target struct {
	name   string
	layout func(n int) [][]int
	kill   bool
}

func invTargets() []target {
	contiguous := func(shards int) func(int) [][]int {
		return func(n int) [][]int {
			per := (n + shards - 1) / shards
			var layout [][]int
			for lo := 0; lo < n; lo += per {
				var run []int
				for i := lo; i < min(lo+per, n); i++ {
					run = append(run, i)
				}
				layout = append(layout, run)
			}
			return layout
		}
	}
	interleaved := func(shards int) func(int) [][]int {
		return func(n int) [][]int {
			layout := make([][]int, shards)
			for i := 0; i < n; i++ {
				layout[i%shards] = append(layout[i%shards], i)
			}
			return layout
		}
	}
	// A replicated layout is interleaved behind one more worker, the primary
	// of the first and the last block, so a healthy phase's batches follow
	// neither the manifest's entries nor ranges of the block order.
	replicated := func(shards int) func(int) [][]int {
		return func(n int) [][]int { return append([][]int{{0, n - 1}}, interleaved(shards)(n)...) }
	}
	targets := []target{{name: "mem"}, {name: "pread"}, {name: "scalar"}}
	if block.MmapSupported() {
		targets = append(targets, target{name: "mmap"})
	}
	// One interleaved shard is one contiguous shard.
	targets = append(targets,
		target{name: "contiguous-1", layout: contiguous(1)},
		target{name: "contiguous-2", layout: contiguous(2)},
		target{name: "contiguous-4", layout: contiguous(4)},
		target{name: "interleaved-2", layout: interleaved(2)},
		target{name: "interleaved-4", layout: interleaved(4)})
	for _, shards := range []int{1, 2, 4} {
		name := fmt.Sprintf("replicated-%d", shards)
		targets = append(targets,
			target{name: name, layout: replicated(shards)},
			target{name: name + "-kill", layout: replicated(shards), kill: true})
	}
	return targets
}

// invTable is one table of the matrix, made on first use (serve): data's
// in-memory blocks with table-wide ids 0…n−1, which every target serves,
// and for a grouped table each group's block ids. local holds its local
// targets and shards its healthy shard layouts, each started once; replicas
// holds a kill target's workers but the victim, which each cell starts
// afresh.
type invTable struct {
	name     string
	data     func(*testing.T) ([]block.Block, []cluster.ShardGroup)
	blocks   []block.Block
	groups   []cluster.ShardGroup
	local    map[string]*served
	shards   map[string]*cluster.ShardTable
	replicas map[string]*cluster.ShardManifest
}

// served is one target's view of a table for one cell.
type served struct {
	register func(*engine.Catalog) // registers the table as "t"
	source   func(core.Config) core.BlockSource
	store    *block.Store // a local target's table
	groups   *group.Store // a local target's grouped table
	zoneMaps bool         // summary footers let the filtered path prune
	killed   func() bool  // a kill target's: did the kill land
	close    func()
}

func memData(b block.Block) []float64 { return b.(*block.MemBlock).Data() }

// The matrix's four tables, each made by the first test that serves it and
// shared by every later test that runs a row over it; invRelease holds what
// they keep open, which TestMain lets go. plainTab is the table the golden
// values are pinned on; integerTab its values rounded, so that <> rejects;
// sortedTab its values sorted into 16 blocks, so that zone maps prune;
// groupedTab three groups of unlike shapes.
var (
	plainTab   = &invTable{name: "plain", data: plainBlocks}
	integerTab = &invTable{name: "integer", data: func(*testing.T) ([]block.Block, []cluster.ShardGroup) {
		r := stats.NewRNG(7)
		ints := make([]float64, 200_000)
		for i := range ints {
			ints[i] = math.Round(100 + 20*r.NormFloat64())
		}
		return block.Partition(ints, 8).Blocks(), nil
	}}
	sortedTab = &invTable{name: "sorted", data: func(t *testing.T) ([]block.Block, []cluster.ShardGroup) {
		var all []float64
		blocks, _ := plainBlocks(t)
		for _, b := range blocks {
			all = append(all, memData(b)...)
		}
		return block.Partition(slices.Sorted(slices.Values(all)), 16).Blocks(), nil
	}}
	groupedTab = &invTable{name: "grouped", data: groupedBlocks}
	invRelease []func()
)

func TestMain(m *testing.M) {
	code := m.Run()
	for _, f := range slices.Backward(invRelease) {
		f()
	}
	os.Exit(code)
}

// serve makes the table's local targets on first use — mem, the scalar
// oracle over the same values, and pread and mmap over block files holding
// them — and starts its shard layouts among targets.
func (tab *invTable) serve(t *testing.T, targets []target) {
	t.Helper()
	if tab.local == nil {
		tab.makeLocal(t)
	}
	if tab.shards == nil && targets != nil {
		tab.startShards(t, targets)
	}
}

func (tab *invTable) makeLocal(t *testing.T) {
	t.Helper()
	tab.blocks, tab.groups = tab.data(t)
	blocks, name := tab.blocks, tab.name
	tab.local = map[string]*served{}
	tab.local["mem"] = tab.assemble(t, blocks, false)
	scalar := make([]block.Block, len(blocks))
	for i, b := range blocks {
		scalar[i] = scalarBlock{Block: b, data: memData(b)}
	}
	tab.local["scalar"] = tab.assemble(t, scalar, false)
	dir, err := os.MkdirTemp("", "invariance")
	if err != nil {
		t.Fatal(err)
	}
	invRelease = append(invRelease, func() { os.RemoveAll(dir) })
	path := func(id int) string { return filepath.Join(dir, fmt.Sprintf("%s.%03d", name, id)) }
	for _, b := range blocks {
		if err := block.WriteFile(path(b.ID()), memData(b)); err != nil {
			t.Fatal(err)
		}
	}
	modes := map[string]block.OpenMode{"pread": block.ModePread}
	if block.MmapSupported() {
		modes["mmap"] = block.ModeMmap
	}
	for label, mode := range modes {
		opened := make([]block.Block, len(blocks))
		for i, b := range blocks {
			fb, err := block.Open(b.ID(), path(b.ID()), mode)
			if err != nil {
				t.Fatal(err)
			}
			opened[i] = fb
		}
		invRelease = append(invRelease, func() { block.NewStore(opened...).Close() })
		tab.local[label] = tab.assemble(t, opened, true)
	}
}

// assemble serves blocks as a local table: a store, or a grouped store whose
// groups hold the table's block ids.
func (tab *invTable) assemble(t *testing.T, blocks []block.Block, zoneMaps bool) *served {
	t.Helper()
	srv := &served{zoneMaps: zoneMaps, close: func() {}}
	if tab.groups == nil {
		srv.store = block.NewStore(blocks...)
		srv.register = func(c *engine.Catalog) { c.Register("t", srv.store) }
	} else {
		parts := map[string]*block.Store{}
		for _, g := range tab.groups {
			var bs []block.Block
			for _, id := range g.Blocks {
				bs = append(bs, blocks[id])
			}
			parts[g.Key] = block.NewStore(bs...)
		}
		gs, err := group.NewStore("g", parts)
		if err != nil {
			t.Fatal(err)
		}
		srv.groups, srv.store = gs, gs.Combined()
		srv.register = func(c *engine.Catalog) { c.RegisterGrouped("t", gs) }
	}
	srv.source = core.LocalExecutor{S: srv.store}.Source
	return srv
}

// startShards starts every shard layout of the table and opens the healthy
// ones.
func (tab *invTable) startShards(t *testing.T, targets []target) {
	t.Helper()
	tab.shards, tab.replicas = map[string]*cluster.ShardTable{}, map[string]*cluster.ShardManifest{}
	for _, tgt := range targets {
		if tgt.layout == nil {
			continue
		}
		layout := tgt.layout(len(tab.blocks))
		if tgt.kill {
			man, workers := tab.startLayout(t, layout[1:])
			invRelease = append(invRelease, func() { closeAll(workers) })
			tab.replicas[tgt.name] = man
			continue
		}
		man, workers := tab.startLayout(t, layout)
		st := openShards(t, man, dialRPC)
		invRelease = append(invRelease, func() { st.Close(); closeAll(workers) })
		tab.shards[tgt.name] = st
	}
}

func openShards(t *testing.T, man *cluster.ShardManifest, dial cluster.DialFunc) *cluster.ShardTable {
	t.Helper()
	st, err := cluster.NewShardTable(man, core.DefaultConfig(), cluster.Config{
		CallTimeout: 2 * time.Second, MaxRetries: 3, BaseBackoff: -1, ProbeInterval: -1}, dial)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// startLayout serves the table's blocks over one loopback worker per layout
// entry and returns their manifest and the workers.
func (tab *invTable) startLayout(t *testing.T, layout [][]int) (*cluster.ShardManifest, []*cluster.Worker) {
	t.Helper()
	man := &cluster.ShardManifest{Version: 1, Groups: tab.groups}
	if tab.groups != nil {
		man.Column = "g"
	}
	var workers []*cluster.Worker
	for _, idxs := range layout {
		var e cluster.ShardEntry
		var sub []block.Block
		for _, i := range idxs {
			sub = append(sub, tab.blocks[i])
			e.Blocks = append(e.Blocks, i)
			e.Lens = append(e.Lens, tab.blocks[i].Len())
		}
		w := cluster.NewWorker(sub...)
		l, err := w.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		e.Addr = l.Addr().String()
		man.Shards = append(man.Shards, e)
		workers = append(workers, w)
	}
	return man, workers
}

func closeAll(workers []*cluster.Worker) {
	for _, w := range workers {
		w.Close()
	}
}

// batchHook runs onBatch before each Worker.Batch call it forwards.
type batchHook struct {
	cluster.Client
	onBatch func()
}

func (c *batchHook) Go(method string, args, reply any, done chan *rpc.Call) *rpc.Call {
	if method == "Worker.Batch" {
		c.onBatch()
	}
	return c.Client.Go(method, args, reply, done)
}

func dialRPC(addr string) (cluster.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(conn), nil
}

// open serves tab on tgt for one cell. A kill target starts its victim,
// worker 0, and kills it on its killAt-th Worker.Batch call, before the call
// is sent.
func (tgt target) open(t *testing.T, tab *invTable, killAt int) *served {
	t.Helper()
	if tgt.layout == nil {
		return tab.local[tgt.name]
	}
	st, stop := tab.shards[tgt.name], func() {}
	var fired atomic.Bool
	if tgt.kill {
		man, workers := tab.startLayout(t, tgt.layout(len(tab.blocks))[:1])
		man.Shards = append(man.Shards, tab.replicas[tgt.name].Shards...)
		victim := man.Shards[0].Addr
		var calls atomic.Int64
		st = openShards(t, man, func(addr string) (cluster.Client, error) {
			cl, err := dialRPC(addr)
			if err != nil || addr != victim {
				return cl, err
			}
			return &batchHook{cl, func() {
				if calls.Add(1) == int64(killAt) {
					fired.Store(true)
					workers[0].Close()
				}
			}}, nil
		})
		stop = func() { st.Close(); closeAll(workers) }
	}
	srv := &served{
		register: func(c *engine.Catalog) { c.RegisterSharded("t", st) },
		source:   st.Source,
		close:    stop,
	}
	if tgt.kill {
		srv.killed = fired.Load
	}
	return srv
}

// answer is what a cell must reproduce of one answer: the table's, a
// group's or a round's. The value and the interval are compared by their
// bits, the sample count and the fallback flag as they are; rest formats
// every other compared field (%v prints a float's shortest form that reads
// back to the same bits). physical holds the draw counts a zone map lowers —
// a filtered answer's samples among them — compared wherever nothing prunes.
type answer struct {
	value, center, half float64
	samples             int64
	fallback            bool
	rest, physical      string
	pilot, pilotCached  bool // the answer has a sampled pilot; it came from the plan cache
}

func engineAnswers(res engine.Result) []answer {
	out := []answer{engineAnswer("table", res.Answer)}
	for _, g := range res.Groups {
		out = append(out, engineAnswer(fmt.Sprintf("group %q %s", g.Group, g.Err), g.Answer))
	}
	return out
}

func engineAnswer(label string, a engine.Answer) answer {
	x := answer{value: a.Value, samples: a.Samples, fallback: a.Fallback, pilot: a.PilotSize > 0, pilotCached: a.PilotCached}
	var ci stats.ConfidenceInterval
	if a.CI != nil {
		ci = *a.CI
		x.center, x.half = ci.Center, ci.HalfWidth
	}
	var f engine.FilterInfo
	if a.Filter != nil {
		// A filtered answer's samples are the draws it serviced.
		f, x.samples = *a.Filter, 0
	}
	x.physical = fmt.Sprintf("samples %d, drawn %d, pruned %d, contained %d, pilot %d",
		a.Samples, f.Drawn, f.PrunedBlocks, f.ContainedBlocks, a.PilotSize)
	f.Drawn, f.PrunedBlocks, f.ContainedBlocks = 0, 0, 0
	var p core.Partial
	if a.Partial != nil {
		p = *a.Partial
	}
	x.rest = fmt.Sprintf("%s: ci %v at %v, filter %v %+v, rows %d, exact %v, partial %v %+v, truncated %v, precision %v, rounds %d",
		label, a.CI != nil, ci.Confidence, a.Filter != nil, f, a.Rows, a.Exact, a.Partial != nil, p, a.Truncated, a.AchievedPrecision, a.Rounds)
	return x
}

// coreRun is one answer of a library call, with its per-block partials and
// the precision its certificate is checked at; a filtered call's answer is in
// filtered instead.
type coreRun struct {
	label  string
	res    core.Result
	blocks []core.BlockResult
	band   float64

	filtered *core.FilteredResult
	fblocks  []core.BlockFilterResult
}

func (r coreRun) answer() answer {
	if f := r.filtered; f != nil {
		// Zone-map classes describe the target's summaries, not the answer;
		// the draws serviced are physical.
		fr, physical := *f, fmt.Sprintf("drawn %d, pilot %d", f.Drawn, f.Pilot.Drawn)
		fr.Drawn, fr.PrunedBlocks, fr.ContainedBlocks = 0, 0, 0
		fr.Pilot.Drawn, fr.Pilot.PrunedDraws, fr.Pilot.Classes = 0, 0, nil
		var blocks []string
		for _, b := range r.fblocks {
			blocks = append(blocks, fmt.Sprintf("%d: %d rows, planned %d, accepted %d, mean %v", b.BlockID, b.Len, b.Planned, b.Accepted, b.Mean))
			physical += fmt.Sprintf(", %d", b.Drawn)
		}
		return answer{value: f.Avg, center: f.CI.Center, half: f.CI.HalfWidth, samples: f.Accepted,
			rest: fmt.Sprintf("%s: %+v, blocks %v", r.label, fr, blocks), physical: physical}
	}
	res, p := r.res, core.Partial{}
	if res.Partial != nil {
		p = *res.Partial
	}
	partial := res.Partial != nil
	res.Partial = nil
	return answer{value: res.Estimate, center: res.CI.Center, half: res.CI.HalfWidth, samples: res.TotalSamples, fallback: res.Fallback,
		rest: fmt.Sprintf("%s: %+v, partial %v %+v, blocks %+v", r.label, res, partial, p, r.blocks)}
}

func sameAnswers(want, got []answer, physical bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	bits := math.Float64bits
	for i, w := range want {
		g := got[i]
		switch {
		case bits(g.value) != bits(w.value) || bits(g.center) != bits(w.center) || bits(g.half) != bits(w.half):
			return fmt.Errorf("answer %d: %v ± %v about %v (%#016x ± %#016x), want %v ± %v about %v (%#016x ± %#016x)", i,
				g.value, g.half, g.center, bits(g.value), bits(g.half), w.value, w.half, w.center, bits(w.value), bits(w.half))
		case g.samples != w.samples || g.fallback != w.fallback:
			return fmt.Errorf("answer %d: %d samples (fallback %v), want %d (fallback %v)", i, g.samples, g.fallback, w.samples, w.fallback)
		case g.rest != w.rest:
			return fmt.Errorf("answer %d:\n got  %s\n want %s", i, g.rest, w.rest)
		case physical && g.physical != w.physical:
			return fmt.Errorf("answer %d: %s, want %s", i, g.physical, w.physical)
		}
	}
	return nil
}

// row is one statement, or one library call, over one table.
type row struct {
	name string
	tab  *invTable
	sql  string
	// prime is the statement before this one on its table: a warm cell's
	// engine answers it first.
	prime string
	// api, when sql is empty, calls the library on the cell's source. freeze
	// is its pilot: frozen in the call with the cache off, kept from the cold
	// pass for the warm one otherwise.
	api     func(ctx context.Context, src core.BlockSource, cfg core.Config, freeze func(context.Context) (core.FrozenPilot, error)) ([]coreRun, error)
	cfg     func(*core.Config)
	caches  []string
	workers []int
	// refused is the typed refusal every shard target returns instead.
	refused error
	// prunes: targets with zone maps must prune, the reference never.
	prunes bool
	// near, when set, is a known defect's relative tolerance on the value:
	// the row's cells agree with the reference only that closely.
	near float64
	// check asserts what the folded tests asserted of one answer, on the
	// reference cell.
	check func(t *testing.T, ref *served, o outcome)
}

// outcome is one pass of a cell, with the plan-cache hits and misses it
// caused and the entries the cache then held.
type outcome struct {
	answers      []answer
	sql          engine.Result
	runs         []coreRun
	hits, misses int64
	entries      int
}

// cacheStats is the engine's plan-cache counters, zero without a cache.
func cacheStats(eng *engine.Engine) plancache.Stats {
	if c := eng.PlanCache(); c != nil {
		return c.Stats()
	}
	return plancache.Stats{}
}

// cell is one point of a row's design. killAt is a kill target's Batch call
// ordinal.
type cell struct {
	tgt     target
	cache   string
	workers int
	killAt  int
}

// primed reports whether the cell's engine answers the row's neighbour
// first: on warm cells of local columns, since the plan-cache key is the
// engine's whatever the target.
func (c cell) primed(r row) bool { return c.cache == "warm" && r.prime != "" && c.tgt.layout == nil }

// design is the row's covering design: target i's cell j takes cache state
// j mod |caches| and worker count (i+j) mod |workers|, for max(|caches|,
// |workers|) cells per target, so every pair of target, cache state and
// worker count is in a cell (checkCovering proves it). A kill lands on the
// victim's first, second or third Batch call in turn: mid-pilot, then in the
// calculation (or a filtered pilot's sized pass), then in a warm pass.
func (r row) design(targets []target) []cell {
	n := max(len(r.caches), len(r.workers))
	var cells []cell
	for i, tgt := range targets {
		for j := range n {
			cells = append(cells, cell{tgt, r.caches[j%len(r.caches)], r.workers[(i+j)%len(r.workers)], j%3 + 1})
		}
	}
	return cells
}

func checkCovering(t *testing.T, r row, targets []target, cells []cell) {
	t.Helper()
	seen := map[string]bool{}
	for _, c := range cells {
		seen[fmt.Sprintf("%s × %s", c.tgt.name, c.cache)] = true
		seen[fmt.Sprintf("%s × %d", c.tgt.name, c.workers)] = true
		seen[fmt.Sprintf("%s × %d", c.cache, c.workers)] = true
	}
	if want := len(targets)*(len(r.caches)+len(r.workers)) + len(r.caches)*len(r.workers); len(seen) != want {
		t.Fatalf("the design holds %d pairs, want %d", len(seen), want)
	}
}

// run executes one cell: one pass, or a cold and a warm pass on one plan
// cache.
func (r row) run(srv *served, c cell) ([]outcome, error) {
	passes := 1
	if c.cache == "warm" {
		passes = 2
	}
	var outs []outcome
	if r.sql != "" {
		cat := engine.NewCatalog()
		srv.register(cat)
		eng := engine.New(cat)
		eng.SetWorkers(c.workers)
		if c.cache != "off" {
			eng.EnablePlanCache(0)
		}
		if c.primed(r) {
			// The pilots a neighbour froze must not answer for this row,
			// unless the two may share them.
			if _, err := eng.ExecuteSQL(r.prime); err != nil && !errors.Is(err, engine.ErrShardUnsupported) {
				return nil, fmt.Errorf("prime %q: %w", r.prime, err)
			}
		}
		for range passes {
			before := cacheStats(eng)
			res, err := eng.ExecuteSQL(r.sql)
			if err != nil {
				return nil, err
			}
			after := cacheStats(eng)
			outs = append(outs, outcome{answers: engineAnswers(res), sql: res,
				hits: after.Hits - before.Hits, misses: after.Misses - before.Misses, entries: after.Entries})
		}
		return outs, nil
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 42
	cfg.Workers = c.workers
	if r.cfg != nil {
		r.cfg(&cfg)
	}
	var kept *core.FrozenPilot
	ctx := context.Background()
	for range passes {
		src := srv.source(cfg)
		freeze := func(ctx context.Context) (core.FrozenPilot, error) {
			if kept != nil {
				return *kept, nil
			}
			fp, err := core.FreezePilot(ctx, src, cfg)
			if err == nil && c.cache != "off" {
				kept = &fp
			}
			return fp, err
		}
		runs, err := r.api(ctx, src, cfg, freeze)
		if err != nil {
			return nil, err
		}
		o := outcome{runs: runs}
		for _, run := range runs {
			o.answers = append(o.answers, run.answer())
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// TestInvarianceMatrix is the determinism contract: every row's every cell
// answers the reference cell's bits, or the row's typed refusal.
func TestInvarianceMatrix(t *testing.T) { runInvariance(t) }

// The rows of rowTests run under the names of the batteries they replaced.
func TestExecutionModesAgree(t *testing.T)             { runInvariance(t) }
func TestBatchScalarEquivalenceEstimate(t *testing.T)  { runInvariance(t) }
func TestBatchScalarEquivalenceRefine(t *testing.T)    { runInvariance(t) }
func TestBatchScalarEquivalenceTimeBound(t *testing.T) { runInvariance(t) }
func TestGroupedEquivalenceBattery(t *testing.T)       { runInvariance(t) }
func TestFilteredEquivalenceBattery(t *testing.T)      { runInvariance(t) }

// rowTests names the test that runs a row, when it is not
// TestInvarianceMatrix: each of these rows covers all of one battery the
// matrix replaced, and runs under that battery's name, and nowhere else.
var rowTests = map[string]string{
	"avg":                "TestExecutionModesAgree",
	"estimate":           "TestBatchScalarEquivalenceEstimate",
	"refine":             "TestBatchScalarEquivalenceRefine",
	"time-bound":         "TestBatchScalarEquivalenceTimeBound",
	"group-avg":          "TestGroupedEquivalenceBattery",
	"group-filtered-avg": "TestFilteredEquivalenceBattery",
}

// runInvariance verifies the rows that run under t's name. A test of one
// row verifies it as itself, so the row check's subtests are the test's.
func runInvariance(t *testing.T) {
	var rows []row
	for _, r := range invRows() {
		if cmp.Or(rowTests[r.name], "TestInvarianceMatrix") == t.Name() {
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no row runs under %s", t.Name())
	}
	targets := invTargets()
	for _, r := range rows {
		r.tab.serve(t, targets)
	}
	if len(rows) == 1 {
		rows[0].verify(t, targets)
		return
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { r.verify(t, targets) })
	}
}

// verify runs the row's reference cell, its row check and every cell of its
// design against the reference.
func (r row) verify(t *testing.T, targets []target) {
	cells := r.design(targets)
	checkCovering(t, r, targets, cells)
	mem := r.tab.local["mem"]
	refs, err := r.run(mem, cell{cache: "off"})
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	ref := refs[0]
	for _, run := range ref.runs {
		if run.filtered != nil {
			continue
		}
		if err := certified(run); err != nil {
			t.Fatalf("reference %s: %v", run.label, err)
		}
	}
	if r.check != nil {
		r.check(t, mem, ref)
	}
	sampled := slices.ContainsFunc(ref.answers, func(a answer) bool { return a.samples > 0 || a.pilot })
	for _, c := range cells {
		label := fmt.Sprintf("%s workers=%d cache %s", c.tgt.name, c.workers, c.cache)
		srv := c.tgt.open(t, r.tab, c.killAt)
		outs, err := r.run(srv, c)
		srv.close()
		if r.refused != nil && c.tgt.layout != nil {
			if !errors.Is(err, r.refused) {
				t.Fatalf("%s: err = %v, want %v", label, err, r.refused)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		// A cold engine misses every pilot once; a warm pass hits each.
		if pilots := int64(countPilots(outs[0].answers)); r.sql != "" && c.cache != "off" {
			if o := outs[0]; c.cache == "cold" && (o.misses != pilots || o.hits != 0 || int64(o.entries) != pilots) {
				t.Fatalf("%s: %d misses, %d hits and %d entries, want %d misses and entries", label, o.misses, o.hits, o.entries, pilots)
			}
			if o := outs[len(outs)-1]; c.cache == "warm" && (o.hits != pilots || o.misses != 0) {
				t.Fatalf("%s: the warm pass hit %d and missed %d, want %d hits", label, o.hits, o.misses, pilots)
			}
		}
		for pass, o := range outs {
			if r.near > 0 {
				o.answers = within(ref.answers, o.answers, r.near)
			}
			if err := sameAnswers(ref.answers, o.answers, !(r.prunes && srv.zoneMaps)); err != nil {
				t.Fatalf("%s, pass %d: %v", label, pass+1, err)
			}
			// A primed engine's first pass may share a neighbour's
			// pilot.
			for _, a := range o.answers {
				if a.pilotCached != (a.pilot && pass == 1) && !(pass == 0 && c.primed(r)) {
					t.Fatalf("%s, pass %d: pilot cached = %v", label, pass+1, a.pilotCached)
				}
			}
			if r.prunes && srv.zoneMaps {
				assertPruned(t, label, ref.sql, o.sql)
			}
		}
		if srv.killed != nil && sampled && !srv.killed() {
			t.Fatalf("%s: the kill did not land mid-cell", label)
		}
	}
}

func countPilots(answers []answer) (n int) {
	for _, a := range answers {
		if a.pilot {
			n++
		}
	}
	return n
}

// within takes the reference's value and centre for every answer whose
// value is within near of the reference's, relatively.
func within(want, got []answer, near float64) []answer {
	got = slices.Clone(got)
	for i := range min(len(want), len(got)) {
		if math.Abs(got[i].value-want[i].value) <= near*math.Abs(want[i].value) {
			got[i].value, got[i].center = want[i].value, want[i].center
		}
	}
	return got
}

// assertPruned: zone maps skipped disjoint blocks and sampled contained ones
// unfiltered, so fewer draws were serviced — in the pilot too — than the
// summary-less reference's, which prunes nothing.
func assertPruned(t *testing.T, label string, ref, got engine.Result) {
	t.Helper()
	r, g := ref.Filter, got.Filter
	if r.PrunedBlocks != 0 || r.ContainedBlocks != 0 {
		t.Fatalf("the summary-less reference pruned: %+v", r)
	}
	if g.PrunedBlocks == 0 || g.ContainedBlocks == 0 || g.Drawn >= r.Drawn || got.PilotSize >= ref.PilotSize {
		t.Fatalf("%s: zone maps not engaged: %+v, pilot %d; reference %+v, pilot %d", label, g, got.PilotSize, r, ref.PilotSize)
	}
}

// certified checks the summarization's certificate on a library answer:
// with b = max(0, band − u·DrawSE), the answer is ISLA's own Raw, bit for
// bit, when Raw lies within b of DrawMean, the stratified plain mean of every
// draw, and DrawMean ± b on Raw's side otherwise.
func certified(r coreRun) error {
	res := r.res
	if res.DrawSE == 0 {
		return errors.New("the certificate abstained on draws of spread")
	}
	u, err := stats.ZValue(res.CI.Confidence)
	if err != nil {
		return err
	}
	b := max(0, r.band-u*res.DrawSE)
	want, fallback := res.Raw, false
	if d := res.Raw - res.DrawMean; math.Abs(d) > b {
		want, fallback = res.DrawMean+math.Copysign(b, d), true
	}
	if math.Float64bits(res.Estimate) != math.Float64bits(want) || res.Fallback != fallback {
		return fmt.Errorf("estimate %v (fallback %v), want %v (fallback %v): raw %v, draw mean %v ± %v, band %v",
			res.Estimate, res.Fallback, want, fallback, res.Raw, res.DrawMean, res.DrawSE, b)
	}
	return nil
}

// plainBlocks is 200 000 values of N(100, 20²) in 8 blocks, data seed 7:
// the table the golden values are pinned on.
func plainBlocks(t *testing.T) ([]block.Block, []cluster.ShardGroup) {
	t.Helper()
	s, _, err := workload.Normal(100, 20, 200_000, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s.Blocks(), nil
}

// apiRows are the library calls, at seed 42: at the golden configuration
// (e = 0.1) the frozen-pilot pipeline with its per-block partials and a
// time-bound run whose budget completes all five rounds, so its schedule is
// fixed; at e = 0.5 variance-aware rates over the grouped table's unlike
// blocks, and three online rounds, whole or at fractions 0.5, 0.25 and 1;
// and the filtered pipeline with its per-block results (seed 5, e = 1).
func apiRows() []row {
	all := []string{"off", "cold", "warm"}
	estimate := func(ctx context.Context, src core.BlockSource, cfg core.Config, freeze func(context.Context) (core.FrozenPilot, error)) ([]coreRun, error) {
		fp, err := freeze(ctx)
		if err != nil {
			return nil, err
		}
		ids, _ := src.Layout()
		blocks := make([]core.BlockResult, len(ids))
		res, err := core.EstimateFrozen(ctx, src, cfg, fp, blocks)
		return []coreRun{{label: "estimate", res: res, blocks: blocks, band: cfg.Precision}}, err
	}
	return []row{
		{name: "estimate", tab: plainTab, api: estimate, caches: all, workers: []int{0, 1, 4, -1},
			check: func(t *testing.T, ref *served, o outcome) {
				// The facade's Estimate is the same pipeline.
				res := plainEstimate(t, ref)
				want := o.runs[0]
				want.blocks = nil
				if err := sameAnswers([]answer{want.answer()}, []answer{(coreRun{label: "estimate", res: res}).answer()}, false); err != nil {
					t.Fatalf("facade: %v", err)
				}
			}},
		{name: "filtered-estimate", tab: plainTab, caches: []string{"off"}, workers: []int{0, 1, 4, -1},
			cfg: func(c *core.Config) { c.Precision, c.Seed = 1, 5 },
			api: func(ctx context.Context, src core.BlockSource, cfg core.Config, _ func(context.Context) (core.FrozenPilot, error)) ([]coreRun, error) {
				f := core.IntervalFilter(math.Inf(-1), 110)
				fp, err := core.FreezeFilterPilot(ctx, src, cfg, f)
				if err != nil {
					return nil, err
				}
				ids, _ := src.Layout()
				blocks := make([]core.BlockFilterResult, len(ids))
				res, err := core.EstimateFilteredFrozen(ctx, src, cfg, f, fp, blocks)
				return []coreRun{{label: "filtered", filtered: &res, fblocks: blocks}}, err
			}},
		// Variance-aware rates over blocks of unlike spread: the grouped
		// table's normal, lognormal and outlier blocks.
		{name: "variance-aware", tab: groupedTab, api: estimate, caches: all, workers: []int{0, 1, 4, -1},
			cfg: func(c *core.Config) { c.VarianceAwareRates, c.Precision = true, 0.5 },
			check: func(t *testing.T, _ *served, o outcome) {
				lo, hi := math.Inf(1), 0.0
				for _, b := range o.runs[0].blocks {
					rate := float64(b.Samples) / float64(b.Len)
					lo, hi = min(lo, rate), max(hi, rate)
				}
				if hi < 2*lo {
					t.Fatalf("per-block rates %v to %v: the blocks' spreads did not set them", lo, hi)
				}
			}},
		{name: "refine", tab: plainTab, caches: []string{"off"}, workers: []int{0, 1, 4},
			cfg: func(c *core.Config) { c.Precision = 0.5 }, api: refine(1, 1, 1)},
		{name: "refine-fractions", tab: plainTab, caches: []string{"off"}, workers: []int{0, 1, 4},
			cfg: func(c *core.Config) { c.Precision = 0.5 }, api: refine(0.5, 0.25, 1)},
		{name: "time-bound", tab: plainTab, caches: all, workers: []int{0, 1, 4},
			api: func(ctx context.Context, src core.BlockSource, cfg core.Config, freeze func(context.Context) (core.FrozenPilot, error)) ([]coreRun, error) {
				res, err := core.EstimateTimeBound(ctx, src, cfg, time.Minute, freeze)
				if err != nil {
					return nil, err
				}
				// The run's session is planned at the pilot's own precision
				// u·σ/√P.
				u, err := stats.ZValue(cfg.Confidence)
				if err != nil {
					return nil, err
				}
				planned := u * res.Pilot.Sigma / math.Sqrt(float64(res.Pilot.PilotSize))
				label := fmt.Sprintf("%d rounds, truncated %v", res.Rounds, res.Truncated)
				return []coreRun{{label: label, res: res.Result, blocks: res.PerBlock, band: min(res.CI.HalfWidth, planned)}}, nil
			},
			check: func(t *testing.T, ref *served, o outcome) {
				if o.runs[0].label != "5 rounds, truncated false" {
					t.Fatalf("the budget did not complete the schedule: %s", o.runs[0].label)
				}
				// It lands within its own achieved precision band.
				tb, want := o.runs[0].res, plainEstimate(t, ref).Estimate
				if math.Abs(tb.Estimate-want) > 5*tb.CI.HalfWidth {
					t.Fatalf("time-bound %v ± %v, estimate %v", tb.Estimate, tb.CI.HalfWidth, want)
				}
			}},
	}
}

// refine runs one online round over src per fraction.
func refine(fractions ...float64) func(context.Context, core.BlockSource, core.Config, func(context.Context) (core.FrozenPilot, error)) ([]coreRun, error) {
	return func(_ context.Context, src core.BlockSource, cfg core.Config, _ func(context.Context) (core.FrozenPilot, error)) ([]coreRun, error) {
		sess, err := core.NewSession(src, cfg)
		if err != nil {
			return nil, err
		}
		var runs []coreRun
		for _, f := range fractions {
			snap, err := sess.Refine(f)
			if err != nil {
				return nil, err
			}
			// A round is certified against what it prints, or the precision
			// it was planned at when that is finer.
			runs = append(runs, coreRun{label: fmt.Sprintf("round %d at %v", snap.Round, f), res: snap.Result, blocks: snap.PerBlock,
				band: min(snap.Result.CI.HalfWidth, cfg.Precision)})
		}
		return runs, nil
	}
}

// plainEstimate is the facade's Estimate at the library rows' configuration.
func plainEstimate(t *testing.T, ref *served) Result {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = 42
	res, err := Estimate(context.Background(), ref.store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// invRows are the matrix's rows over its four tables.
func invRows() []row {
	all3, w3 := []string{"off", "cold", "warm"}, []int{0, 1, 4}
	sql := func(name string, tab *invTable, stmt string) row {
		return row{name: name, tab: tab, sql: stmt, caches: all3, workers: w3}
	}
	rows := []row{
		sql("avg", plainTab, "SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 7"),
		sql("sum", plainTab, "SELECT SUM(v) FROM t WITH PRECISION 0.5 SEED 8"),
		sql("count", plainTab, "SELECT COUNT(v) FROM t"),
		{name: "filtered-avg", tab: plainTab, sql: "SELECT AVG(v) FROM t WHERE v >= 90 AND v <= 140 WITH PRECISION 0.5 SEED 5",
			caches: all3, workers: []int{0, 1, 4, -1}},
		sql("filtered-sum", plainTab, "SELECT SUM(v) FROM t WHERE v > 80 AND v < 120 WITH PRECISION 0.5 SEED 11"),
		sql("filtered-count", plainTab, "SELECT COUNT(v) FROM t WHERE v > 100 WITH PRECISION 0.5 SEED 13"),
		sql("pruned-avg", sortedTab, "SELECT AVG(v) FROM t WHERE v >= 95 AND v <= 105 WITH PRECISION 0.5 SEED 17"),
		sql("ne-avg", integerTab, "SELECT AVG(v) FROM t WHERE v <> 100 WITH PRECISION 0.5 SEED 3"),
		sql("ne-range-avg", integerTab, "SELECT AVG(v) FROM t WHERE v > 90 AND v <> 100 WITH PRECISION 0.5 SEED 3"),
		sql("ne-count", integerTab, "SELECT COUNT(*) FROM t WHERE v <> 100 WITH PRECISION 0.5 SEED 3"),
		sql("time-avg", plainTab, "SELECT AVG(v) FROM t WITH TIME 60 SEED 7"),
		sql("time-sum", plainTab, "SELECT SUM(v) FROM t WITH TIME 60 SEED 12"),
		sql("group-avg", groupedTab, "SELECT AVG(v) FROM t GROUP BY g WITH PRECISION 2 SEED 3"),
		sql("group-filtered-avg", groupedTab, "SELECT AVG(v) FROM t WHERE v > 110 GROUP BY g WITH PRECISION 2 SEED 5"),
		sql("group-filtered-sum", groupedTab, "SELECT SUM(v) FROM t WHERE v >= 100 AND v <= 160 GROUP BY g WITH PRECISION 2 SEED 9"),
		sql("group-filtered-count", groupedTab, "SELECT COUNT(v) FROM t WHERE v > 130 GROUP BY g WITH PRECISION 2 SEED 4"),
	}
	for _, m := range []string{"EXACT", "US WITH PRECISION 0.5 SEED 3", "STS WITH PRECISION 0.5 SEED 3",
		"MV WITH PRECISION 0.5 SEED 3", "MVB WITH PRECISION 0.5 SEED 3"} {
		name, _, _ := strings.Cut(m, " ")
		rm := sql("method-"+strings.ToLower(name), plainTab, "SELECT AVG(v) FROM t METHOD "+m)
		if name == "EXACT" || name == "MVB" {
			// Shards cannot push an exact scan or MVB's per-region sums
			// down.
			rm.refused = engine.ErrShardUnsupported
		}
		if name == "EXACT" {
			// Known defect: a store whose footers all carry summaries
			// answers from their raw sums, a scan from shifted ones, so
			// pread and mmap differ from mem in the last bits.
			rm.near = 1e-12
		}
		rows = append(rows, rm)
	}
	rows = append(rows, apiRows()...)

	checks := map[string]func(*testing.T, *served, outcome){
		// The engine's frozen-pilot path is the library's.
		"avg": func(t *testing.T, ref *served, o outcome) {
			cfg := core.DefaultConfig()
			cfg.Precision, cfg.Seed = 0.5, 7
			lib, err := Estimate(context.Background(), ref.store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a := o.sql.Answer; a.Value != lib.Estimate || a.Samples != lib.TotalSamples || *a.CI != lib.CI || a.Fallback != lib.Fallback {
				t.Fatalf("engine %v ± %v (%d samples), library %v ± %v (%d)", a.Value, a.CI.HalfWidth, a.Samples, lib.Estimate, lib.CI.HalfWidth, lib.TotalSamples)
			}
		},
		"count": func(t *testing.T, ref *served, o outcome) {
			if a := o.sql.Answer; !a.Exact || a.Value != float64(ref.store.TotalLen()) {
				t.Fatalf("COUNT = %+v, want the exact %d", a, ref.store.TotalLen())
			}
		},
		"method-exact": func(t *testing.T, ref *served, o outcome) {
			if want, err := ref.store.ExactMean(); err != nil || o.sql.Value != want {
				t.Fatalf("exact %v, scan %v (%v)", o.sql.Value, want, err)
			}
		},
		"filtered-avg": withinExact(func(v float64) bool { return v >= 90 && v <= 140 }, nil),
		"ne-avg":       pinned(100.55334331303578, 6566),
		"ne-range-avg": pinned(110.987475174595, 4826),
		"ne-count":     pinned(196465.62924467016, 6566),
		"time-avg":     completesSchedule,
		"time-sum":     completesSchedule,
		"group-avg":    groupsIsolated(2, 3),
		"group-filtered-avg": withinExact(func(v float64) bool { return v > 110 },
			// The outlier group's σ undercovers when few of its 1 % outliers
			// land in the draw.
			map[string]float64{"outliers": 6}),
	}
	for i := range rows {
		if c, ok := checks[rows[i].name]; ok {
			rows[i].check = c
		}
		rows[i].prunes = rows[i].name == "pruned-avg"
		for k := 1; k < len(rows); k++ {
			j := (i - k + len(rows)) % len(rows)
			if rows[j].tab == rows[i].tab && rows[j].sql != "" && rows[i].sql != "" {
				rows[i].prime = rows[j].sql
				break
			}
		}
	}
	return rows
}

// groupedBlocks is three groups of unlike shapes and sizes in 6 blocks each,
// every group far above the engine's exact small-group size, so that every
// target samples it: normal, lognormal, and a normal with 1 % outliers.
func groupedBlocks(t *testing.T) ([]block.Block, []cluster.ShardGroup) {
	t.Helper()
	r := stats.NewRNG(77)
	var rows []group.Row
	for _, g := range []struct {
		key  string
		dist stats.Dist
		n    int
	}{
		{"normal", stats.Normal{Mu: 120, Sigma: 20}, 30_000},
		{"lognormal", stats.LogNormal{Mu: 4.8, Sigma: 0.5}, 40_000},
		{"outliers", stats.NewMixture(
			stats.Component{Weight: 0.99, Dist: stats.Normal{Mu: 140, Sigma: 20}},
			stats.Component{Weight: 0.01, Dist: stats.Normal{Mu: 1000, Sigma: 50}}), 50_000},
	} {
		for range g.n {
			rows = append(rows, group.Row{Group: g.key, Value: g.dist.Sample(r)})
		}
	}
	gs, err := group.BuildColumn("g", rows, 6)
	if err != nil {
		t.Fatal(err)
	}
	var groups []cluster.ShardGroup
	for _, key := range gs.Groups() {
		s, _ := gs.Group(key)
		g := cluster.ShardGroup{Key: key}
		for _, b := range s.Blocks() {
			g.Blocks = append(g.Blocks, b.ID())
		}
		groups = append(groups, g)
	}
	return gs.Combined().Blocks(), groups
}

// eachAnswer runs f on each answer of a result with the store it answers
// over: the table's, or each group's, as a subtest named for the group.
func eachAnswer(t *testing.T, ref *served, res engine.Result, f func(t *testing.T, key string, a engine.Answer, s *block.Store)) {
	t.Helper()
	if len(res.Groups) == 0 {
		f(t, "table", res.Answer, ref.store)
		return
	}
	for _, g := range res.Groups {
		t.Run(g.Group, func(t *testing.T) {
			if g.Err != "" {
				t.Fatal(g.Err)
			}
			s, err := ref.groups.Group(g.Group)
			if err != nil {
				t.Fatal(err)
			}
			f(t, g.Group, g.Answer, s)
		})
	}
}

// withinExact: a filtered answer lands within mult (3 unless mult names the
// group) of its interval's half-width from the exact filtered scan, and it
// accepted draws.
func withinExact(pred func(float64) bool, mult map[string]float64) func(*testing.T, *served, outcome) {
	return func(t *testing.T, ref *served, o outcome) {
		eachAnswer(t, ref, o.sql, func(t *testing.T, key string, a engine.Answer, s *block.Store) {
			n, sum, err := core.ExactFiltered(s, pred)
			if err != nil {
				t.Fatal(err)
			}
			exact, m := sum/float64(n), cmp.Or(mult[key], 3)
			if a.CI == nil || math.Abs(a.Value-exact) > m*a.CI.HalfWidth {
				t.Fatalf("%s: filtered %v vs exact %v (%+v)", key, a.Value, exact, a.CI)
			}
			if a.Filter == nil || a.Filter.Accepted == 0 || a.Filter.PrunedBlocks != 0 {
				t.Fatalf("%s: filter %+v: nothing accepted, or the summary-less reference pruned", key, a.Filter)
			}
		})
	}
}

// groupsIsolated: each group's answer is plain Estimate's on the group's own
// store — the grouped path adds no statistical machinery.
func groupsIsolated(precision float64, seed uint64) func(*testing.T, *served, outcome) {
	return func(t *testing.T, ref *served, o outcome) {
		cfg := core.DefaultConfig()
		cfg.Precision, cfg.Seed = precision, seed
		eachAnswer(t, ref, o.sql, func(t *testing.T, key string, a engine.Answer, s *block.Store) {
			want, err := Estimate(context.Background(), s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.Exact || a.Value != want.Estimate || a.Samples != want.TotalSamples || *a.CI != want.CI {
				t.Fatalf("group %s: engine %v ± %v (%d samples, exact %v), isolated %v ± %v (%d)",
					key, a.Value, a.CI, a.Samples, a.Exact, want.Estimate, want.CI.HalfWidth, want.TotalSamples)
			}
		})
	}
}

// pinned: the reference answers the <> golden's value and sample count,
// first taken when a predicate closure served <> (the range statement's
// value re-pinned in its last bits when the pilot's moments became shifted
// power sums); every cell, shard layouts among them, reproduces it.
func pinned(value float64, samples int64) func(*testing.T, *served, outcome) {
	return func(t *testing.T, _ *served, o outcome) {
		if a := o.sql.Answer; math.Float64bits(a.Value) != math.Float64bits(value) || a.Samples != samples {
			t.Fatalf("%v over %d samples, golden %v over %d", a.Value, a.Samples, value, samples)
		}
	}
}

func completesSchedule(t *testing.T, _ *served, o outcome) {
	if o.sql.Rounds != 5 || o.sql.Truncated {
		t.Fatalf("%d rounds (truncated %v), want all 5", o.sql.Rounds, o.sql.Truncated)
	}
}

// TestInvarianceGolden pins the reference cell's bits across releases: same
// Config.Seed ⇒ same bits, and TestInvarianceMatrix carries them to every
// other cell. First captured from the pre-batching scalar implementation;
// re-captured when every unfiltered caller moved onto the one frozen
// per-block pipeline with its 400-draw probe floor. The online session's
// second round was pinned when rounds started merging each round's fresh
// power sums into the stored ones (it read 0x4058f3d1e362af9a while one fold
// ran on across rounds; the third round's estimate did not move). The
// variance-aware Raw read …4f3a until Algorithm 2's region masses came from
// the upper tails and its inversions became a bracketed search, which move
// an answer's last bits.
//
// On this table every pinned answer prints the summarization's certificate,
// not ISLA's own: the estimate, the variance-aware estimate and both pinned
// online rounds have a Raw (pinned) farther from the stratified plain mean of
// their draws, pilot probes included, than the band allows, so each prints
// that mean moved toward Raw by the band (truth 99.9765, e = 0.1). The
// printed values were re-pinned when the certificate replaced the guard that
// printed the plain mean itself (the estimate read 99.90563675741465, the
// online rounds 99.97929284258194 and 100.01306775475923, and the
// variance-aware estimate printed its Raw, whose interval missed the truth).
func TestInvarianceGolden(t *testing.T) {
	const (
		goldenRaw      = 0x4058f2ddfcf8903b // 99.79479908250589, ISLA's answer
		goldenEstimate = 0x4058f9bf34a41d00 // 99.90229526545227, printed
		goldenSamples  = 155160
		goldenVarAware = 0x4058f3195dd74f39 // 99.79842325235667, ISLA's answer
		goldenVarPrint = 0x4058f9461b20c800 // 99.89490392876905, printed
		goldenOnline2  = 0x4058f3d1e362af98 // Raw after two rounds
		goldenOnline   = 0x4058f466fcef5454 // 99.81878589031231, Raw after three
		goldenPrinted2 = 0x4058fe85f93c196a // 99.97692709797926, printed after two rounds
		goldenPrinted  = 0x405900b8196e1dbf // 100.01123653176818, printed after three
	)
	// golden checks one result against its pinned Raw and printed bits.
	golden := func(what string, res Result, raw, printed uint64) {
		t.Helper()
		if bits := math.Float64bits(res.Raw); bits != raw {
			t.Fatalf("%s: raw %v (%#016x), want golden %#016x", what, res.Raw, bits, raw)
		}
		if !res.Fallback {
			t.Fatalf("%s: the answer is Raw, not the certificate's (raw %v, draw mean %v ± %v)", what, res.Raw, res.DrawMean, res.DrawSE)
		}
		if bits := math.Float64bits(res.Estimate); bits != printed {
			t.Fatalf("%s: estimate %v (%#016x), want golden %#016x", what, res.Estimate, bits, printed)
		}
	}
	plainTab.serve(t, nil)
	mem := plainTab.local["mem"]
	outs, err := apiRows()[0].run(mem, cell{cache: "off"})
	if err != nil {
		t.Fatal(err)
	}
	est := outs[0].runs[0].res
	golden("estimate", est, goldenRaw, goldenEstimate)
	if est.TotalSamples != goldenSamples {
		t.Fatalf("estimate: samples %d, want %d", est.TotalSamples, goldenSamples)
	}
	// The variance-aware and online goldens are pinned at e = 0.1 on the
	// reference cell alone, as they always were; the matrix's rows run them
	// at e = 0.5.
	cfg := core.DefaultConfig()
	cfg.Seed = 42
	rounds, err := refine(1, 1, 1)(context.Background(), mem.source(cfg), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rounds {
		if err := certified(r); err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
	}
	golden("online after two rounds", rounds[1].res, goldenOnline2, goldenPrinted2)
	golden("online after three rounds", rounds[2].res, goldenOnline, goldenPrinted)
	// Online refinement converges on the estimate's neighbourhood.
	if got := rounds[2].res.Estimate; math.Abs(got-est.Estimate) > 2*cfg.Precision {
		t.Fatalf("online %v, estimate %v", got, est.Estimate)
	}
	cfg.VarianceAwareRates = true
	varAware, err := Estimate(context.Background(), mem.store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	golden("variance-aware", varAware, goldenVarAware, goldenVarPrint)
}
