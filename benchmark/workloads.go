package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"isla"
	"isla/internal/block"
	"isla/internal/cluster"
	"isla/internal/core"
	"isla/internal/engine"
	"isla/internal/group"
	"isla/internal/plancache"
	"isla/internal/serve"
)

// Engine configuration shared by every workload: islaserv's defaults, with
// the plan cache sized so each workload's hot keys fit.
const (
	planCacheCap = 256
	engWorkers   = -1 // one exec worker per CPU
	hotSeeds     = 16
	numBlocks    = 16
	numShards    = 4
	clients      = 2 // client goroutines / connections: nproc on the reference box
	openLoopQPS  = 300
)

// stmt is one SQL statement of a workload's mix.
type stmt struct {
	SQL   string
	Class string
	body  []byte // pre-encoded POST /query body (serve_open only)
}

// class is one share of a workload's traffic: a weight and the hot
// statements it draws from uniformly.
type class struct {
	name   string
	weight float64
	stmts  []int // indices into mix.hot
}

// mix is a workload's statement generator: a finite hot set (the
// verification set) plus, optionally, never-repeating cold statements.
type mix struct {
	hot []stmt
	// extra statements join the verification set only — more seeds of the
	// hot templates, so coverage is scored on enough intervals to be steady
	// — and never reach the system under test.
	extra     []stmt
	classes   []class
	coldShare float64
	cold      func(id uint64) stmt // id is unique per call across the run
}

// next draws the next statement for a client. coldID supplies the next
// unique cold id when a cold statement is drawn.
func (m *mix) next(r *rand.Rand, coldID func() uint64) *stmt {
	if m.coldShare > 0 && r.Float64() < m.coldShare {
		s := m.cold(coldID())
		return &s
	}
	u := r.Float64()
	for i := range m.classes {
		c := &m.classes[i]
		if u < c.weight || i == len(m.classes)-1 {
			return &m.hot[c.stmts[r.IntN(len(c.stmts))]]
		}
		u -= c.weight
	}
	panic("unreachable")
}

func (m *mix) addClass(name string, weight float64, sqls ...string) {
	c := class{name: name, weight: weight}
	for _, sql := range sqls {
		c.stmts = append(c.stmts, len(m.hot))
		m.hot = append(m.hot, stmt{SQL: sql, Class: name})
	}
	m.classes = append(m.classes, c)
}

// localTable is the single-node view of a table's data: what the oracle
// engine and the traced replay run against.
type localTable struct {
	store  *block.Store
	groups *group.Store
}

// system is one set-up instance of the system under test.
type system struct {
	// ask sends one statement down the client-visible path (HTTP or
	// in-process) and returns its answer.
	ask        func(ctx context.Context, s *stmt) (answer, error)
	cacheStats func() plancache.Stats
	local      map[string]localTable
	closers    []func()

	// Handles the traced run needs; zero where the workload has none.
	baseURL string // of the HTTP server
	shard   *cluster.ShardTable
	wire    *wireCounter
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// workload is one benchmark workload: its random inputs, how the system is
// set up over them, and the traffic it receives.
type workload interface {
	// datagen synthesizes the random data from seed (and writes block
	// files under dir where the workload is file-backed). Not part of
	// set-up time. shrink divides every row count; 1 in real runs.
	datagen(seed uint64, shrink int, dir string) error
	// setup opens / partitions / registers the tables, connects shards,
	// enables the cache and starts the server. traced additionally wires
	// the counters only the traced run reads.
	setup(traced bool) (*system, error)
	// mix returns the statement generator.
	mix() *mix
	// openLoop reports whether arrivals come on a clock (true) or from
	// clients that wait for each reply (false).
	openLoop() bool
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "serve_open":
		return &serveOpen{}, nil
	case "scan_heavy":
		return &scanHeavy{}, nil
	case "filtered_mmap":
		return &filteredMmap{}, nil
	case "shard_scatter":
		return &shardScatter{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func dataRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x15a0+stream))
}

func normalData(r *rand.Rand, n int, mu, sigma float64) []float64 {
	data := make([]float64, n)
	for i := range data {
		data[i] = mu + sigma*r.NormFloat64()
	}
	return data
}

// newDB returns an isla.DB configured like islaserv's engine.
func newDB() *isla.DB {
	db := isla.NewDB()
	db.SetWorkers(engWorkers)
	db.EnablePlanCache(planCacheCap)
	return db
}

// inProcess wires a system's client path to db.QueryContext.
func inProcess(db *isla.DB) *system {
	return &system{
		ask: func(ctx context.Context, s *stmt) (answer, error) {
			res, err := db.QueryContext(ctx, s.SQL)
			if err != nil {
				return answer{}, err
			}
			return answerOf(res), nil
		},
		cacheStats: func() plancache.Stats {
			st, _ := db.PlanCacheStats()
			return st
		},
		local: make(map[string]localTable),
	}
}

// ---------------------------------------------------------------- serve_open

// serveOpen: open loop at a fixed rate over real loopback HTTP. Point,
// filtered and grouped statements at ~6k samples each, so the front end —
// parse, plan cache, plan derivation, modulation, JSON — does the work.
type serveOpen struct {
	t    []float64
	rows []group.Row
}

var serveGroups = []struct {
	key       string
	mu, sigma float64
}{{"east", 60, 15}, {"north", 90, 15}, {"south", 120, 15}, {"west", 150, 15}}

func (w *serveOpen) openLoop() bool { return true }

func (w *serveOpen) datagen(seed uint64, shrink int, _ string) error {
	w.t = normalData(dataRNG(seed, 1), 1_000_000/shrink, 100, 20)
	r := dataRNG(seed, 2)
	per := 250_000 / shrink
	w.rows = make([]group.Row, 0, per*len(serveGroups))
	for _, g := range serveGroups {
		for i := 0; i < per; i++ {
			w.rows = append(w.rows, group.Row{Group: g.key, Value: g.mu + g.sigma*r.NormFloat64()})
		}
	}
	return nil
}

func (w *serveOpen) setup(bool) (*system, error) {
	t := block.Partition(w.t, numBlocks)
	g, err := group.BuildColumn("region", w.rows, numBlocks/len(serveGroups))
	if err != nil {
		return nil, err
	}
	cat := engine.NewCatalog()
	cat.Register("t", t)
	cat.RegisterGrouped("g", g)
	eng := engine.New(cat)
	eng.SetWorkers(engWorkers)
	eng.EnablePlanCache(planCacheCap)
	srv, err := serve.New(serve.Config{Engine: eng})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(l) //nolint:errcheck // returns ErrServerClosed on Close
	}()
	tr := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	sys := &system{
		cacheStats: func() plancache.Stats { return eng.PlanCache().Stats() },
		local:      map[string]localTable{"t": {store: t}, "g": {store: g.Combined(), groups: g}},
		baseURL:    "http://" + l.Addr().String(),
	}
	sys.ask = func(ctx context.Context, s *stmt) (answer, error) {
		return httpAsk(ctx, hc, sys.baseURL, s)
	}
	sys.closers = append(sys.closers, func() {
		tr.CloseIdleConnections()
		hs.Close()
		<-served
	})
	return sys, nil
}

func (w *serveOpen) mix() *mix {
	m := &mix{}
	var point, filtered, grouped []string
	preds := []string{"v > 90", "v > 110", "v > 80 AND v < 120", "v > 95 AND v < 130"}
	aggs := []string{"AVG(v)", "SUM(v)", "COUNT(*)"}
	for s := 1; s <= hotSeeds; s++ {
		for _, p := range []string{"0.5", "1"} {
			point = append(point, fmt.Sprintf("SELECT AVG(v) FROM t WITH PRECISION %s SEED %d", p, s))
		}
		for _, pr := range preds {
			for _, a := range aggs {
				filtered = append(filtered, fmt.Sprintf("SELECT %s FROM t WHERE %s WITH PRECISION 1 SEED %d", a, pr, s))
			}
		}
		grouped = append(grouped, fmt.Sprintf("SELECT AVG(v) FROM g GROUP BY region WITH PRECISION 0.5 SEED %d", s))
	}
	m.addClass("point", 0.5, point...)
	m.addClass("filtered", 0.3, filtered...)
	m.addClass("grouped", 0.2, grouped...)
	for i := range m.hot {
		m.hot[i].body = queryBody(m.hot[i].SQL)
	}
	return m
}

// ---------------------------------------------------------------- scan_heavy

// scanHeavy: closed loop, in-process, unfiltered AVG at tight precision on
// two tables larger than L2: the sampling kernel (RNG fill, gather,
// accumulate) is nearly all of the time. The exponential table is where
// |S| != |L| and the modulation has something to correct.
type scanHeavy struct {
	n4, e4 []float64
}

// scanRows and the two precisions are sized together: each statement draws
// about 0.43M samples from a 32 MB table (5-10 ms), so a 20 s window holds
// several thousand of them and the 95th percentile has well over 100
// samples beyond it. scanCoverageSeeds extra seeds per table are verified
// but never timed: at this sampling rate the intervals cover the truth only
// about half the time, and a ratio near one half over 1024 intervals still
// carries 2 % of counting noise. (The table's own draw adds about 5 % across
// data seeds, which no number of intervals removes.)
const (
	scanRows          = 4_000_000
	scanPrecNorm      = "0.06"
	scanPrecExp       = "0.3"
	scanCoverageSeeds = 496
)

func (w *scanHeavy) openLoop() bool { return false }

func (w *scanHeavy) datagen(seed uint64, shrink int, _ string) error {
	w.n4 = normalData(dataRNG(seed, 1), scanRows/shrink, 100, 20)
	r := dataRNG(seed, 2)
	w.e4 = make([]float64, scanRows/shrink)
	for i := range w.e4 {
		w.e4[i] = 100 * r.ExpFloat64()
	}
	return nil
}

func (w *scanHeavy) setup(bool) (*system, error) {
	n4 := block.Partition(w.n4, numBlocks)
	e4 := block.Partition(w.e4, numBlocks)
	db := newDB()
	db.RegisterStore("n4", n4)
	db.RegisterStore("e4", e4)
	sys := inProcess(db)
	sys.local["n4"] = localTable{store: n4}
	sys.local["e4"] = localTable{store: e4}
	return sys, nil
}

func (w *scanHeavy) mix() *mix {
	m := &mix{}
	var norm, exp []string
	normSQL := func(s int) string {
		return fmt.Sprintf("SELECT AVG(v) FROM n4 WITH PRECISION %s SEED %d", scanPrecNorm, s)
	}
	expSQL := func(s int) string {
		return fmt.Sprintf("SELECT AVG(v) FROM e4 WITH PRECISION %s SEED %d", scanPrecExp, s)
	}
	for s := 1; s <= hotSeeds; s++ {
		norm = append(norm, normSQL(s))
		exp = append(exp, expSQL(s))
	}
	m.addClass("normal", 0.5, norm...)
	m.addClass("skewed", 0.5, exp...)
	for s := hotSeeds + 1; s <= hotSeeds+scanCoverageSeeds; s++ {
		m.extra = append(m.extra, stmt{SQL: normSQL(s), Class: "normal"}, stmt{SQL: expSQL(s), Class: "skewed"})
	}
	return m
}

// ------------------------------------------------------------- filtered_mmap

// filteredMmap: closed loop, in-process, interval-filtered AVG/SUM/COUNT
// over 16 memory-mapped ISLB v3 files whose block means drift (block i is
// normal(100+10i, 10)), so zone maps can tell blocks apart.
type filteredMmap struct {
	paths []string
}

func (w *filteredMmap) openLoop() bool { return false }

func (w *filteredMmap) datagen(seed uint64, shrink int, dir string) error {
	r := dataRNG(seed, 1)
	per := 250_000 / shrink
	w.paths = nil
	for b := 0; b < numBlocks; b++ {
		blk := normalData(r, per, 100+10*float64(b), 10)
		path := filepath.Join(dir, fmt.Sprintf("drift.%03d", b))
		if err := block.WriteFile(path, blk); err != nil {
			return err
		}
		w.paths = append(w.paths, path)
	}
	return nil
}

func (w *filteredMmap) setup(bool) (*system, error) {
	st, err := isla.OpenFilesMode(isla.ModeMmap, w.paths...)
	if err != nil {
		return nil, err
	}
	db := newDB()
	db.RegisterStore("d", st)
	sys := inProcess(db)
	sys.local["d"] = localTable{store: st}
	sys.closers = append(sys.closers, func() { st.Close() })
	return sys, nil
}

// The three shares of filtered_mmap. Block envelopes are about mean±46, so
// a prunable interval at either tail overlaps 3-4 blocks, a wide one
// overlaps all 16 while containing none, and a selective one accepts ~5%
// of the draws it makes.
var filteredShares = []struct {
	name, prec string
	preds      []string
}{
	{"prunable", "0.05", []string{"v > 60 AND v < 90", "v > 260 AND v < 290"}},
	{"wide", "0.1", []string{"v > 130 AND v < 215", "v > 125 AND v < 212"}},
	{"selective", "0.1", []string{"v > 172 AND v < 179.5", "v > 141 AND v < 148.5"}},
}

func (w *filteredMmap) mix() *mix {
	m := &mix{}
	aggs := []string{"AVG(v)", "SUM(v)", "COUNT(*)"}
	for _, sh := range filteredShares {
		var sqls []string
		for s := 1; s <= hotSeeds; s++ {
			for _, pr := range sh.preds {
				for _, a := range aggs {
					sqls = append(sqls, fmt.Sprintf("SELECT %s FROM d WHERE %s WITH PRECISION %s SEED %d", a, pr, sh.prec, s))
				}
			}
		}
		m.addClass(sh.name, 1.0/3, sqls...)
	}
	return m
}

// ------------------------------------------------------------- shard_scatter

// shardScatter: closed loop, in-process isla.DB over a 4-shard ShardTable
// (in-process workers on loopback listeners). Sampling is tiny; gob, RPC
// round trips and the coordinator merge do the work. 70% of statements
// reuse a hot seed (warm: calc scatter only), 30% carry a seed never seen
// before (cold: sequential pilot threading, scatter, cache insert).
type shardScatter struct {
	data []float64
}

const shardColdShare = 0.3

func (w *shardScatter) openLoop() bool { return false }

func (w *shardScatter) datagen(seed uint64, shrink int, _ string) error {
	w.data = normalData(dataRNG(seed, 1), 1_000_000/shrink, 100, 20)
	return nil
}

func (w *shardScatter) setup(traced bool) (*system, error) {
	local := block.Partition(w.data, numBlocks)
	blocks := local.Blocks()
	man := &cluster.ShardManifest{Version: 1}
	db := newDB()
	sys := inProcess(db)
	sys.local["s"] = localTable{store: local}
	per := numBlocks / numShards
	for i := 0; i < numBlocks; i += per {
		sub := blocks[i : i+per]
		wk := cluster.NewWorker(sub...)
		l, err := wk.ListenAndServe("127.0.0.1:0")
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.closers = append(sys.closers, func() { wk.Close() })
		e := cluster.ShardEntry{Addr: l.Addr().String()}
		for _, b := range sub {
			e.Blocks = append(e.Blocks, b.ID())
			e.Lens = append(e.Lens, b.Len())
		}
		man.Shards = append(man.Shards, e)
	}
	var dial cluster.DialFunc
	if traced {
		sys.wire = &wireCounter{}
		dial = sys.wire.dial
	}
	st, err := cluster.NewShardTable(man, core.DefaultConfig(), cluster.Config{}, dial)
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.closers = append(sys.closers, func() { st.Close() })
	db.RegisterSharded("s", st)
	sys.shard = st
	return sys, nil
}

var shardTemplates = []string{
	"SELECT AVG(v) FROM s WITH PRECISION 0.5 SEED %d",
	"SELECT AVG(v) FROM s WHERE v > 80 AND v < 130 WITH PRECISION 0.5 SEED %d",
	"SELECT SUM(v) FROM s WHERE v > 80 AND v < 130 WITH PRECISION 0.5 SEED %d",
	"SELECT COUNT(*) FROM s WHERE v > 80 AND v < 130 WITH PRECISION 0.5 SEED %d",
	"SELECT AVG(v) FROM s WHERE v > 105 WITH PRECISION 0.5 SEED %d",
	"SELECT SUM(v) FROM s WHERE v > 105 WITH PRECISION 0.5 SEED %d",
	"SELECT COUNT(*) FROM s WHERE v > 105 WITH PRECISION 0.5 SEED %d",
}

// coldSeedBase keeps cold seeds clear of the hot range.
const coldSeedBase = 1 << 20

// shardCoverageSeeds extra seeds of every template are verified but never
// sent: 112 intervals at a coverage near 0.96 move by 4 % from one data seed
// to the next, 448 by 2 %.
const shardCoverageSeeds = 48

func (w *shardScatter) mix() *mix {
	m := &mix{coldShare: shardColdShare}
	var point, filtered []string
	for s := 1; s <= hotSeeds; s++ {
		point = append(point, fmt.Sprintf(shardTemplates[0], s))
		for _, t := range shardTemplates[1:] {
			filtered = append(filtered, fmt.Sprintf(t, s))
		}
	}
	m.addClass("point", 0.5, point...)
	m.addClass("filtered", 0.5, filtered...)
	for s := hotSeeds + 1; s <= hotSeeds+shardCoverageSeeds; s++ {
		m.extra = append(m.extra, stmt{SQL: fmt.Sprintf(shardTemplates[0], s), Class: "point"})
		for _, t := range shardTemplates[1:] {
			m.extra = append(m.extra, stmt{SQL: fmt.Sprintf(t, s), Class: "filtered"})
		}
	}
	m.cold = func(id uint64) stmt {
		// Half the cold traffic is point, half filtered, like the hot mix.
		t := shardTemplates[0]
		if id%2 == 1 {
			t = shardTemplates[1+(id/2)%uint64(len(shardTemplates)-1)]
		}
		return stmt{SQL: fmt.Sprintf(t, coldSeedBase+id), Class: "cold"}
	}
	return m
}

// scratchDir creates the per-process directory block files are written to,
// inside the checkout (the benchmark writes nowhere else).
func scratchDir(root string) (string, func(), error) {
	dir := filepath.Join(root, fmt.Sprintf("data-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
