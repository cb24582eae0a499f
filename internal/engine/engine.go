// Package engine executes parsed queries against a catalog of tables. It
// is the glue between the query dialect, the ISLA core and the baseline
// estimators: the paper's "system" that accepts
// SELECT AVG(column) FROM table WITH PRECISION e and returns an answer with
// a confidence assurance.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"isla/internal/baseline"
	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/group"
	"isla/internal/leverage"
	"isla/internal/metrics"
	"isla/internal/plancache"
	"isla/internal/query"
	"isla/internal/stats"
	"isla/internal/timebound"
)

// Table is one named column of data partitioned into blocks. A Table is
// immutable once returned by Lookup: re-registering a name produces a new
// Table with a higher generation rather than mutating the old one.
type Table struct {
	Name  string
	Store *block.Store
	// Groups holds the per-group stores of a grouped table (nil for plain
	// tables). For grouped tables Store is the combined view over every
	// group's blocks, so ungrouped queries keep working.
	Groups *group.Store
	// Shard is the remote execution surface of a sharded table (nil for
	// local tables); when set, Store and Groups are nil and every query
	// runs through Shard's executors.
	Shard Sharded
	// Gen is the catalog-wide registration counter at the moment this
	// table version was registered. Caches key derived state (pilot
	// plans) by it so a replaced store can never serve stale state.
	Gen uint64
}

// Rows returns the table's row count, wherever the blocks live.
func (t *Table) Rows() int64 {
	if t.Shard != nil {
		return t.Shard.Rows()
	}
	return t.Store.TotalLen()
}

// Sharded is a table whose blocks live on remote shard workers — the
// engine-facing surface of the cluster package's ShardTable. The engine
// serves it through the same query path, plan cache, metrics classes and
// AllowPartial degradation as a local store; only operations that need the
// raw bytes locally (exact scans, baseline estimators, time-budgeted runs)
// refuse with ErrShardUnsupported.
type Sharded interface {
	// Rows is the table's row count (replicas counted once).
	Rows() int64
	// Checksum fingerprints the shard layout; it keys plan-cache entries
	// the way a local store's summary checksum does.
	Checksum() uint64
	// Executor is the whole-table execution surface.
	Executor() core.Executor
	// GroupColumn names the grouped column ("" when ungrouped).
	GroupColumn() string
	// GroupKeys returns the group keys, sorted; empty when ungrouped.
	GroupKeys() []string
	// GroupExecutor returns one group's execution surface.
	GroupExecutor(key string) (core.Executor, error)
}

// Catalog maps table names to stores. It is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	gen    uint64
	hooks  []func(name string)
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Register adds or replaces a table. Every registration bumps the
// catalog's generation counter, so the returned table version is
// distinguishable from any earlier one with the same name.
func (c *Catalog) Register(name string, store *block.Store) {
	c.mu.Lock()
	c.gen++
	c.tables[name] = &Table{Name: name, Store: store, Gen: c.gen}
	hooks := c.hooks
	c.mu.Unlock()
	// Hooks run outside the lock: generation keying already guarantees
	// coherence, hooks only reclaim derived state promptly.
	for _, fn := range hooks {
		fn(name)
	}
}

// RegisterGrouped adds or replaces a grouped table: GROUP BY queries run
// per group, ungrouped queries aggregate the combined view. Like Register,
// every registration bumps the generation counter and fires the hooks.
func (c *Catalog) RegisterGrouped(name string, g *group.Store) {
	c.mu.Lock()
	c.gen++
	c.tables[name] = &Table{Name: name, Store: g.Combined(), Groups: g, Gen: c.gen}
	hooks := c.hooks
	c.mu.Unlock()
	for _, fn := range hooks {
		fn(name)
	}
}

// RegisterSharded adds or replaces a sharded table: queries run through
// sh's remote executors instead of a local store. Like Register, every
// registration bumps the generation counter and fires the hooks.
func (c *Catalog) RegisterSharded(name string, sh Sharded) {
	c.mu.Lock()
	c.gen++
	c.tables[name] = &Table{Name: name, Shard: sh, Gen: c.gen}
	hooks := c.hooks
	c.mu.Unlock()
	for _, fn := range hooks {
		fn(name)
	}
}

// OnRegister adds a callback invoked (outside the catalog lock) after
// every Register with the registered name. Used by the plan cache to drop
// superseded pilots.
func (c *Catalog) OnRegister(fn func(name string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hooks = append(c.hooks, fn)
}

// ErrUnknownTable is wrapped by Lookup failures so front ends can map
// them (e.g. to HTTP 404) with errors.Is.
var ErrUnknownTable = errors.New("engine: unknown table")

// ErrShardUnsupported is wrapped by refusals of operations that need a
// table's raw bytes on the serving node — exact scans, baseline
// estimators, time-budgeted runs — when the table is sharded.
var ErrShardUnsupported = errors.New("engine: not supported on sharded tables")

// Lookup returns the named table.
func (c *Catalog) Lookup(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownTable, name)
	}
	return t, nil
}

// Names returns the registered table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Result is the outcome of executing one query.
type Result struct {
	Query    query.Query
	Value    float64
	CI       *stats.ConfidenceInterval // nil for COUNT / EXACT
	Method   query.Method
	Rows     int64         // M, the table size
	Samples  int64         // samples consumed (0 for EXACT/COUNT)
	Duration time.Duration // wall time of execution
	Detail   *core.Result  // ISLA diagnostics when Method == MethodISLA
	// Truncated reports that a time-budgeted run hit its hard wall-clock
	// cutoff: the answer covers only a prefix of the table's blocks.
	Truncated bool
	// AchievedPrecision is the precision a time-budgeted run derived from
	// its wall-clock budget (§VII-F); 0 for precision-target queries.
	AchievedPrecision float64
	// CoveredBlocks is the number of blocks merged into a time-budgeted
	// answer (all of them unless Truncated); 0 for other modes.
	CoveredBlocks int
	// Groups holds the per-group answers of a GROUP BY query, sorted by
	// group key; Value is then unset and Samples sums across groups. A
	// group that failed carries Err and zero values — its siblings still
	// answer.
	Groups []GroupResult
	// Filter carries the selectivity diagnostics of a WHERE query.
	Filter *FilterInfo
	// Partial is non-nil when the answer degraded to the intact fraction
	// of a store with quarantined (corrupt) blocks: the estimate covers
	// Partial.CoveredRows of Partial.TotalRows.
	Partial *core.Partial
}

// GroupResult is one group's answer within a grouped query.
type GroupResult struct {
	Group string
	Value float64
	CI    *stats.ConfidenceInterval
	// Rows is the group's size |B_g| (its unfiltered row count).
	Rows    int64
	Samples int64
	// Exact reports the value was computed by scan/metadata, not sampled.
	Exact bool
	// PilotCached reports this group's pre-estimation came from the plan
	// cache.
	PilotCached bool
	// Err is the group's failure, "" on success.
	Err string
	// Filter carries the group's selectivity diagnostics under WHERE.
	Filter *FilterInfo
	// Partial is non-nil when this group's answer degraded to its intact
	// fraction (quarantined blocks, AllowPartial mode).
	Partial *core.Partial
}

// FilterInfo summarizes predicate rejection sampling: how many raw draws
// the plan allocated and physically consumed, how many passed, the
// estimated selectivity, and how much work zone-map pruning resolved
// without sampling.
type FilterInfo struct {
	// Planned counts the raw draws the sampling plan allocated; Drawn the
	// physically serviced subset. They differ exactly by the draws booked
	// against blocks whose summaries proved the predicate disjoint.
	Planned     int64
	Drawn       int64
	Accepted    int64
	Selectivity float64
	// PrunedBlocks and ContainedBlocks count quota-bearing blocks the
	// calculation phase resolved by zone maps: skipped as disjoint, or
	// sampled unfiltered as fully contained.
	PrunedBlocks    int
	ContainedBlocks int
}

// Engine executes queries against a catalog with a base ISLA configuration
// whose per-query knobs (precision, confidence, sample fraction, seed) are
// overridden from the query itself. The base config's Workers field sets
// the exec-runtime concurrency for every estimation the engine runs.
//
// An Engine is safe for concurrent use: the base configuration is
// immutable after construction behind a copy-on-read accessor
// (BaseConfig), per-query overrides land in a derived copy, and
// SetBaseConfig/SetWorkers swap the whole config atomically — no shared
// state is written while a query executes.
type Engine struct {
	Catalog *Catalog

	mu   sync.RWMutex
	base core.Config

	cache atomic.Pointer[plancache.Cache]
	// groupExact mirrors group.Options.ExactThreshold for SQL GROUP BY
	// execution: 0 means group.DefaultExactThreshold, negative disables
	// the fallback.
	groupExact atomic.Int64
	hookOnce   sync.Once
	inFlight   atomic.Int64
	served     atomic.Int64
	perTable   sync.Map // table name → *atomic.Int64 query counts
	statsFrom  time.Time
	metrics    *metrics.Registry

	// Storage-integrity counters, updated by Scrub.
	scrubRuns    atomic.Int64
	scrubChecked atomic.Int64
	scrubCorrupt atomic.Int64
}

// New returns an engine over catalog with the paper's default config.
func New(catalog *Catalog) *Engine {
	return &Engine{
		Catalog:   catalog,
		base:      core.DefaultConfig(),
		statsFrom: time.Now(),
		metrics:   metrics.NewRegistry(),
	}
}

// Metrics returns the engine's observability registry: per-table,
// per-class latency histograms, query/sample/truncation counters and
// windowed rates, recorded on every completed query. Front ends render
// it (serve's GET /metrics) — the engine itself only writes.
func (e *Engine) Metrics() *metrics.Registry { return e.metrics }

// classify buckets a query into its metrics class. A budgeted run
// dominates (its latency is bounded by construction), then grouped (a
// per-group fan-out), then filtered.
func classify(q query.Query) metrics.Class {
	switch {
	case q.TimeBudget > 0:
		return metrics.ClassTimebound
	case q.GroupBy != "":
		return metrics.ClassGrouped
	case len(q.Predicates) > 0:
		return metrics.ClassFiltered
	default:
		return metrics.ClassPoint
	}
}

// BaseConfig returns a copy of the engine's base configuration. Mutating
// the copy does not affect the engine; use SetBaseConfig to replace it.
func (e *Engine) BaseConfig() core.Config {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.base
}

// SetBaseConfig atomically replaces the base configuration. Queries
// already executing keep the config they started with.
func (e *Engine) SetBaseConfig(cfg core.Config) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.base = cfg
}

// SetWorkers atomically sets the exec-runtime concurrency of the base
// configuration: 0 sequential, negative one worker per CPU, positive
// as-is. Purely a speed knob — answers do not depend on it.
func (e *Engine) SetWorkers(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.base.Workers = n
}

// SetAllowPartial atomically sets the base configuration's partial-answer
// policy: with it on, unfiltered ISLA queries over tables with quarantined
// blocks degrade to the intact fraction (Result.Partial records the loss)
// instead of failing with a *core.QuarantinedError.
func (e *Engine) SetAllowPartial(v bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.base.AllowPartial = v
}

// SetGroupExactThreshold sets the small-group exact fallback for GROUP BY
// execution: groups with at most n rows are scanned exactly instead of
// sampled — mirroring group.Options.ExactThreshold, so both paths return
// the same values (the engine keeps its own convention of reporting zero
// samples for exact answers). Zero (the default) means
// group.DefaultExactThreshold; negative disables the fallback.
func (e *Engine) SetGroupExactThreshold(n int64) { e.groupExact.Store(n) }

// groupExactThreshold resolves the zero/negative conventions through the
// group package's own rule, so the two paths cannot drift.
func (e *Engine) groupExactThreshold() int64 {
	return group.Options{ExactThreshold: e.groupExact.Load()}.Threshold()
}

// EnablePlanCache attaches a pilot-plan cache of the given capacity
// (plancache.DefaultCapacity if capacity <= 0) and returns it. ISLA
// queries then run their pre-estimation through the per-block pipeline
// (§VII-C geometry) so the pilot is precision-independent and shareable:
// a repeat query on the same table, seed and sample fraction skips the
// pilot phase entirely and returns a bit-identical answer. Replacing a
// table via Register invalidates its cached pilots.
func (e *Engine) EnablePlanCache(capacity int) *plancache.Cache {
	c := plancache.New(capacity)
	e.cache.Store(c)
	e.hookOnce.Do(func() {
		e.Catalog.OnRegister(func(name string) {
			if pc := e.cache.Load(); pc != nil {
				pc.Invalidate(name)
			}
		})
	})
	return c
}

// DisablePlanCache detaches the plan cache; queries run cold pilots again.
func (e *Engine) DisablePlanCache() { e.cache.Store(nil) }

// PlanCache returns the attached cache, or nil when disabled.
func (e *Engine) PlanCache() *plancache.Cache { return e.cache.Load() }

// Stats is a snapshot of the engine's serving counters.
type Stats struct {
	// InFlight is the number of queries executing right now.
	InFlight int64
	// Served is the number of queries completed since construction.
	Served int64
	// Uptime is the time since the engine was constructed.
	Uptime time.Duration
	// PerTable maps table names to completed query counts.
	PerTable map[string]int64
	// Cache holds plan-cache counters when a cache is attached.
	Cache *plancache.Stats
	// ScrubRuns / ScrubChecked / ScrubCorrupt count scrub passes, blocks
	// whose payload checksum was verified across them, and verification
	// failures found.
	ScrubRuns    int64
	ScrubChecked int64
	ScrubCorrupt int64
	// Quarantined maps table names to their quarantined block ids
	// (combined-view numbering); only damaged tables appear.
	Quarantined map[string][]int
}

// Stats returns a snapshot of the serving counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		InFlight:     e.inFlight.Load(),
		Served:       e.served.Load(),
		Uptime:       time.Since(e.statsFrom),
		PerTable:     make(map[string]int64),
		ScrubRuns:    e.scrubRuns.Load(),
		ScrubChecked: e.scrubChecked.Load(),
		ScrubCorrupt: e.scrubCorrupt.Load(),
		Quarantined:  e.QuarantinedBlocks(),
	}
	e.perTable.Range(func(k, v any) bool {
		st.PerTable[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	if c := e.cache.Load(); c != nil {
		cs := c.Stats()
		st.Cache = &cs
	}
	return st
}

// QuarantinedBlocks reports every table's quarantined block ids
// (combined-view numbering for grouped tables); healthy tables are absent.
// An empty map means all storage is believed intact.
func (e *Engine) QuarantinedBlocks() map[string][]int {
	out := make(map[string][]int)
	for _, name := range e.Catalog.Names() {
		tbl, err := e.Catalog.Lookup(name)
		if err != nil || tbl.Store == nil {
			continue // racing deregistration, or a sharded table
		}
		if ids := tbl.Store.QuarantinedIDs(); len(ids) > 0 {
			out[name] = ids
		}
	}
	return out
}

// TableScrub is one table's scrub outcome within an engine-wide pass.
type TableScrub struct {
	Table  string
	Report block.ScrubReport
}

// Scrub verifies the payload checksums of every registered table, with up
// to workers blocks in flight per store (see exec.Pool), quarantining what
// fails. Grouped tables scrub per group with the quarantine mirrored into
// the combined view. Results come back per table in name order; the error
// is non-nil only when a scrub could not complete (context cancelled,
// unreadable file) — corruption lands in the reports, not the error.
func (e *Engine) Scrub(ctx context.Context, workers int) ([]TableScrub, error) {
	e.scrubRuns.Add(1)
	var out []TableScrub
	for _, name := range e.Catalog.Names() {
		tbl, err := e.Catalog.Lookup(name)
		if err != nil || tbl.Store == nil {
			continue // racing deregistration, or a sharded table (workers scrub)
		}
		var rep block.ScrubReport
		if tbl.Groups != nil {
			rep, err = tbl.Groups.Scrub(ctx, workers)
		} else {
			rep, err = tbl.Store.Scrub(ctx, workers)
		}
		e.scrubChecked.Add(int64(rep.Verified))
		e.scrubCorrupt.Add(int64(len(rep.Corrupt)))
		out = append(out, TableScrub{Table: name, Report: rep})
		if err != nil {
			return out, fmt.Errorf("engine: scrub %q: %w", name, err)
		}
	}
	return out, nil
}

// countQuery updates the serving counters and the metrics registry for
// one completed query.
func (e *Engine) countQuery(table string, q query.Query, res *Result) {
	e.served.Add(1)
	v, ok := e.perTable.Load(table)
	if !ok {
		v, _ = e.perTable.LoadOrStore(table, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)
	e.metrics.Observe(table, classify(q), res.Duration, res.Samples, res.Truncated)
}

// ExecuteSQL parses and executes one statement.
func (e *Engine) ExecuteSQL(sql string) (Result, error) {
	return e.ExecuteSQLContext(context.Background(), sql)
}

// ExecuteSQLContext parses and executes one statement under ctx.
func (e *Engine) ExecuteSQLContext(ctx context.Context, sql string) (Result, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return Result{}, err
	}
	return e.ExecuteContext(ctx, q)
}

// Execute runs a parsed query.
func (e *Engine) Execute(q query.Query) (Result, error) {
	return e.ExecuteContext(context.Background(), q)
}

// ExecuteContext runs a parsed query under ctx: cancelling it aborts the
// estimation mid-calculation.
func (e *Engine) ExecuteContext(ctx context.Context, q query.Query) (Result, error) {
	tbl, err := e.Catalog.Lookup(q.Table)
	if err != nil {
		return Result{}, err
	}
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	start := time.Now()
	res := Result{Query: q, Method: q.Method, Rows: tbl.Rows()}
	cfg := e.queryConfig(q)
	f, hasFilter := compileFilter(q.Predicates)
	fingerprint := query.PredicateString(q.Predicates)

	if q.GroupBy != "" {
		parts, err := e.groupTargets(tbl, q)
		if err != nil {
			return Result{}, err
		}
		for _, g := range parts {
			rows := g.tgt.ex.TotalLen()
			p, err := e.aggregateStore(ctx, q, cfg, tbl, true, g.key, g.tgt, f, hasFilter, fingerprint)
			if err != nil {
				// Cancellation aborts the whole query; any other failure is
				// confined to its group so the siblings still answer.
				if ctx.Err() != nil {
					return Result{}, err
				}
				res.Groups = append(res.Groups, GroupResult{Group: g.key, Rows: rows, Err: err.Error()})
				continue
			}
			res.Groups = append(res.Groups, GroupResult{
				Group: g.key, Value: p.value, CI: p.ci, Rows: rows,
				Samples: p.samples, Exact: p.exact, PilotCached: p.cached,
				Filter: p.filter, Partial: p.part,
			})
			res.Samples += p.samples
		}
		res.Duration = time.Since(start)
		e.countQuery(tbl.Name, q, &res)
		return res, nil
	}

	tgt := target{s: tbl.Store}
	if tbl.Shard != nil {
		tgt.ex = tbl.Shard.Executor()
	} else {
		tgt.ex = core.LocalExecutor{S: tbl.Store}
	}
	p, err := e.aggregateStore(ctx, q, cfg, tbl, false, "", tgt, f, hasFilter, fingerprint)
	if err != nil {
		return Result{}, err
	}
	res.Value = p.value
	res.CI = p.ci
	res.Samples = p.samples
	res.Detail = p.detail
	res.Truncated = p.truncated
	res.AchievedPrecision = p.achieved
	res.CoveredBlocks = p.covered
	res.Filter = p.filter
	res.Partial = p.part
	res.Duration = time.Since(start)
	e.countQuery(tbl.Name, q, &res)
	return res, nil
}

// queryConfig lands the per-query overrides in a derived copy of the base
// config, so no engine state is written during execution.
func (e *Engine) queryConfig(q query.Query) core.Config {
	cfg := e.BaseConfig()
	if q.Precision > 0 {
		cfg.Precision = q.Precision
	}
	if q.Confidence > 0 {
		cfg.Confidence = q.Confidence
	}
	if q.SampleFraction > 0 {
		cfg.SampleFraction = q.SampleFraction
	}
	if q.HasSeed {
		cfg.Seed = q.Seed
	}
	return cfg
}

// target is the execution surface aggregateStore runs against. ex is
// always set; s is the backing local store, nil when the blocks live on
// remote shards — which rules out the paths that read raw bytes locally
// (exact scans, baselines, time-budgeted runs).
type target struct {
	s  *block.Store
	ex core.Executor
}

// groupTarget is one group's key and execution surface.
type groupTarget struct {
	key string
	tgt target
}

// groupTargets resolves a GROUP BY query's per-group execution surfaces,
// local or sharded, validating the group column either way.
func (e *Engine) groupTargets(tbl *Table, q query.Query) ([]groupTarget, error) {
	if tbl.Shard != nil {
		keys := tbl.Shard.GroupKeys()
		if len(keys) == 0 {
			return nil, fmt.Errorf("engine: sharded table %q has no groups in its manifest; GROUP BY needs one", q.Table)
		}
		if col := tbl.Shard.GroupColumn(); col != "" && q.GroupBy != col {
			return nil, fmt.Errorf("engine: unknown group column %q on table %q (group column is %q)", q.GroupBy, q.Table, col)
		}
		out := make([]groupTarget, 0, len(keys))
		for _, key := range keys {
			ex, err := tbl.Shard.GroupExecutor(key)
			if err != nil {
				return nil, err // unreachable: keys come from the manifest
			}
			out = append(out, groupTarget{key: key, tgt: target{ex: ex}})
		}
		return out, nil
	}
	gs := tbl.Groups
	if gs == nil {
		return nil, fmt.Errorf("engine: table %q is not grouped; register it with RegisterGrouped to GROUP BY", q.Table)
	}
	if col := gs.Column(); col != "" && q.GroupBy != col {
		return nil, fmt.Errorf("engine: unknown group column %q on table %q (group column is %q)", q.GroupBy, q.Table, col)
	}
	keys := gs.Groups()
	out := make([]groupTarget, 0, len(keys))
	for _, key := range keys {
		s, err := gs.Group(key)
		if err != nil {
			return nil, err // unreachable: keys come from the store
		}
		out = append(out, groupTarget{key: key, tgt: target{s: s, ex: core.LocalExecutor{S: s}}})
	}
	return out, nil
}

// partial is one store's answer — the whole table or a single group —
// before it is folded into the Result shape.
type partial struct {
	value     float64
	ci        *stats.ConfidenceInterval
	samples   int64
	detail    *core.Result
	truncated bool
	achieved  float64 // §VII-F budget-derived precision
	covered   int     // blocks merged into a time-budgeted answer
	exact     bool
	cached    bool
	filter    *FilterInfo
	part      *core.Partial // quarantine degradation accounting
}

// quarantinedIDs is the nil-tolerant quarantine probe: sharded targets
// have no local store (their workers quarantine for themselves).
func quarantinedIDs(s *block.Store) []int {
	if s == nil {
		return nil
	}
	return s.QuarantinedIDs()
}

// filterInfo extracts the selectivity diagnostics of a filtered run.
func filterInfo(fr core.FilteredResult) *FilterInfo {
	return &FilterInfo{
		Planned:         fr.Planned,
		Drawn:           fr.Drawn,
		Accepted:        fr.Accepted,
		Selectivity:     fr.Selectivity,
		PrunedBlocks:    fr.PrunedBlocks,
		ContainedBlocks: fr.ContainedBlocks,
	}
}

// compileFilter lowers the WHERE conjunction into the estimator's filter
// form: conjunctions of comparisons that reduce to one closed interval
// carry their bounds (unlocking the fused gather kernel and zone-map
// pruning), everything else runs the general closure. ok is false for an
// empty conjunction — no filtering at all.
func compileFilter(preds []query.Predicate) (core.Filter, bool) {
	pred := query.Filter(preds)
	if pred == nil {
		return core.Filter{}, false
	}
	if iv, ok := query.CompileInterval(preds); ok {
		return core.IntervalFilter(iv.Lo, iv.Hi), true
	}
	return core.PredFilter(pred), true
}

// aggregateStore executes q's aggregate on one store — the whole table or
// one group of it; grouped+groupKey participate in the plan-cache keys so
// every group freezes its own pilot (and the empty group key never
// collides with the table-level entry). Predicates arrive pre-compiled
// with their canonical fingerprint. Small groups fall back to exact
// computation like group.Aggregate does — sampling a 50-row group buys
// nothing — under the engine's group-exact threshold.
func (e *Engine) aggregateStore(ctx context.Context, q query.Query, cfg core.Config, tbl *Table, grouped bool, groupKey string, tgt target, f core.Filter, hasFilter bool, fingerprint string) (partial, error) {
	s := tgt.s
	M := tgt.ex.TotalLen()
	exact := q.Method == query.MethodExact
	// The small-group exact fallback needs a local scan, so sharded groups
	// always sample.
	if grouped && !exact && q.Method == query.MethodISLA && s != nil {
		if thr := e.groupExactThreshold(); thr > 0 && M <= thr {
			exact = true
		}
	}

	// Sharded targets refuse what cannot be pushed down. Unfiltered COUNT
	// stays exempt — it is metadata-exact from the manifest either way.
	if s == nil && !(q.Agg == query.COUNT && !hasFilter) {
		switch {
		case q.TimeBudget > 0:
			return partial{}, fmt.Errorf("%w: time-budgeted runs", ErrShardUnsupported)
		case exact:
			return partial{}, fmt.Errorf("%w: exact scans", ErrShardUnsupported)
		case q.Method != query.MethodISLA:
			return partial{}, fmt.Errorf("%w: baseline estimators", ErrShardUnsupported)
		case hasFilter && !f.HasInterval:
			return partial{}, fmt.Errorf("%w: non-interval predicates (closures cannot travel to workers)", ErrShardUnsupported)
		}
	}

	// Quarantined stores: unfiltered COUNT proceeds (exact from metadata,
	// untouched by corrupt bytes) and exact paths proceed when they can be
	// served from trusted footers (a scan-based exact answer fails inside
	// the store with a CorruptBlockError). The unfiltered ISLA estimator
	// proceeds too, degrading or refusing under core's AllowPartial policy.
	// Everything else refuses with the typed error: filtered estimates
	// scale by the full M (Horvitz–Thompson would bias on partial
	// coverage), baselines carry no partial accounting, and time-budgeted
	// runs already compose truncation no CI could also absorb quarantine.
	if ids := quarantinedIDs(s); len(ids) > 0 {
		refuse := false
		switch {
		case q.Agg == query.COUNT && !hasFilter:
		case exact:
		case hasFilter, q.Method != query.MethodISLA, q.TimeBudget > 0:
			refuse = true
		}
		if refuse {
			return partial{}, &core.QuarantinedError{
				Blocks: ids, CoveredRows: s.CoveredLen(), TotalRows: s.TotalLen()}
		}
	}

	// A contradictory conjunction (e.g. v > 5 AND v < 3) is decided at
	// compile time: COUNT is exactly zero and AVG/SUM have no matching
	// rows, without drawing — or even planning — a single sample.
	if hasFilter && f.Contradiction() {
		if q.Agg == query.COUNT {
			return partial{value: 0, exact: true, filter: &FilterInfo{}}, nil
		}
		return partial{}, core.ErrNoMatch
	}

	// COUNT: exact from metadata when unfiltered; under a predicate it is
	// an estimated selectivity count (Horvitz–Thompson p̂·M) unless an
	// exact scan is asked for (or the group is small).
	if q.Agg == query.COUNT {
		if !hasFilter {
			return partial{value: float64(M), exact: true}, nil
		}
		if exact {
			n, _, err := core.ExactFiltered(s, f.Pred)
			if err != nil {
				return partial{}, err
			}
			return partial{value: float64(n), exact: true}, nil
		}
		fr, err := e.filtered(ctx, cfg, tbl, grouped, groupKey, tgt, f, fingerprint)
		if errors.Is(err, core.ErrNoMatch) {
			// No sampled row matched: the count estimate is zero.
			return partial{value: 0, samples: fr.Drawn, cached: fr.PilotCached,
				filter: &FilterInfo{Drawn: fr.Drawn}}, nil
		}
		if err != nil {
			return partial{}, err
		}
		ci := fr.CountCI
		return partial{value: fr.Count, ci: &ci, samples: fr.Drawn,
			cached: fr.PilotCached, filter: filterInfo(fr)}, nil
	}

	// Filtered AVG/SUM: rejection sampling with HT correction, or an exact
	// filtered scan (METHOD EXACT or a small group).
	if hasFilter {
		if exact {
			n, sum, err := core.ExactFiltered(s, f.Pred)
			if err != nil {
				return partial{}, err
			}
			if n == 0 {
				return partial{}, core.ErrNoMatch
			}
			v := sum / float64(n)
			if q.Agg == query.SUM {
				v = sum
			}
			return partial{value: v, exact: true}, nil
		}
		fr, err := e.filtered(ctx, cfg, tbl, grouped, groupKey, tgt, f, fingerprint)
		if err != nil {
			return partial{}, err
		}
		p := partial{samples: fr.Drawn, cached: fr.PilotCached, filter: filterInfo(fr)}
		if q.Agg == query.SUM {
			ci := fr.SumCI
			p.value, p.ci = fr.Sum, &ci
		} else {
			ci := fr.CI
			p.value, p.ci = fr.Avg, &ci
		}
		return p, nil
	}

	var avg float64
	var p partial
	var err error
	if exact {
		avg, err = s.ExactMean()
		p = partial{exact: true}
	} else {
		avg, p, err = e.average(ctx, q, cfg, tbl, grouped, groupKey, tgt)
	}
	if err != nil {
		return partial{}, err
	}
	p.value = avg
	if q.Agg == query.SUM {
		// SUM = AVG · M (§VII-D); the CI half-width scales by M too. A
		// degraded run covers only the intact rows, so its SUM is the sum
		// over those rows — what Partial tells the caller it got.
		scale := float64(M)
		if p.part != nil {
			scale = float64(p.part.CoveredRows)
		}
		p.value = avg * scale
		if p.ci != nil {
			ci := *p.ci
			ci.Center = p.value
			ci.HalfWidth *= scale
			p.ci = &ci
		}
	}
	return p, nil
}

// average dispatches the unfiltered AVG computation to the selected
// estimator on one target. Sharded targets reach only the MethodISLA
// frozen pipeline — aggregateStore refused everything else already.
func (e *Engine) average(ctx context.Context, q query.Query, cfg core.Config, tbl *Table, grouped bool, groupKey string, tgt target) (float64, partial, error) {
	s := tgt.s
	switch q.Method {
	case query.MethodExact:
		v, err := s.ExactMean()
		return v, partial{exact: true}, err

	case query.MethodISLA:
		if q.TimeBudget > 0 {
			// §VII-F: derive the precision from the wall-clock budget.
			var opts timebound.Options
			var hit bool
			if cache := e.cache.Load(); cache != nil {
				fp, h, err := e.frozenPilot(ctx, cache, tbl, grouped, groupKey, tgt, cfg)
				if err != nil {
					return 0, partial{}, err
				}
				opts.Frozen = &fp
				hit = h
			}
			tb, err := timebound.Estimate(ctx, s, cfg,
				time.Duration(q.TimeBudget*float64(time.Second)), opts)
			if err != nil {
				return 0, partial{}, err
			}
			tb.Result.PilotCached = hit
			return tb.Estimate, partial{ci: &tb.CI, samples: tb.TotalSamples,
				detail: &tb.Result, truncated: tb.Truncated, cached: hit,
				achieved: tb.AchievedPrecision, covered: tb.CoveredBlocks}, nil
		}
		cache := e.cache.Load()
		if cache == nil && s != nil {
			// A local table without a plan cache stays on the i.i.d.
			// pipeline (unless the base config asks for per-block bounds).
			out, err := core.Estimate(ctx, s, cfg)
			if err != nil {
				return 0, partial{}, err
			}
			return out.Estimate, partial{ci: &out.CI, samples: out.TotalSamples,
				detail: &out, part: out.Partial}, nil
		}
		fp, hit, err := e.frozenPilot(ctx, cache, tbl, grouped, groupKey, tgt, cfg)
		if err != nil {
			return 0, partial{}, err
		}
		out, err := tgt.ex.EstimateFrozen(ctx, cfg, fp)
		if err != nil {
			return 0, partial{}, err
		}
		out.PilotCached = hit
		return out.Estimate, partial{ci: &out.CI, samples: out.TotalSamples,
			detail: &out, cached: hit, part: out.Partial}, nil

	case query.MethodUS, query.MethodSTS, query.MethodMV, query.MethodMVB:
		r := stats.NewRNG(cfg.Seed)
		pilot, err := core.PreEstimate(s, cfg, r)
		if err != nil {
			return 0, partial{}, err
		}
		m := pilot.SampleSize
		ci, err := stats.MeanCI(0, pilot.Sigma, m, cfg.Confidence)
		if err != nil {
			return 0, partial{}, err
		}
		var v float64
		switch q.Method {
		case query.MethodUS:
			v, err = baseline.Uniform(s, m, r)
		case query.MethodSTS:
			v, err = baseline.Stratified(s, m, r)
		case query.MethodMV:
			v, err = baseline.MeasureBiased(s, m, r)
		default: // MethodMVB
			var bounds leverage.Boundaries
			bounds, err = leverage.NewBoundaries(pilot.Sketch0, pilot.Sigma, cfg.P1, cfg.P2)
			if err == nil {
				v, err = baseline.MeasureBiasedBounded(s, m, bounds, r)
			}
		}
		if err != nil {
			return 0, partial{}, err
		}
		ci.Center = v
		return v, partial{ci: &ci, samples: m}, nil

	default:
		return 0, partial{}, errors.New("engine: unsupported method")
	}
}

// frozenPilot fetches (or builds, single-flighted) the frozen
// pre-estimation for one store of the table version and config — the whole
// table or, for grouped tables, a single group (groupKey keys the entry).
// The pilot's RNG consumption depends only on the seed and the blocks'
// sizes; precision, confidence and sample fraction are re-derived per
// query via RederivePilot, so one pilot serves every precision target. The
// sample fraction still participates in the key so cache entries map
// one-to-one onto distinct sampling plans (at the cost of one extra pilot
// per fraction in use).
func (e *Engine) frozenPilot(ctx context.Context, cache *plancache.Cache, tbl *Table, grouped bool, groupKey string, tgt target, cfg core.Config) (core.FrozenPilot, bool, error) {
	key := plancache.Key{
		Table:          tbl.Name,
		Generation:     tbl.Gen,
		SampleFraction: cfg.SampleFraction,
		Seed:           cfg.Seed,
		SummaryPilot:   cfg.SummaryPilot,
		SummaryCRC:     tgt.ex.SummaryChecksum(),
		Grouped:        grouped,
		Group:          groupKey,
	}
	return cached(ctx, cache, key, func() (core.FrozenPilot, error) {
		return tgt.ex.FreezePilot(ctx, cfg)
	})
}

// cached fetches key's pilot from the plan cache, freezing it on a miss; with
// no cache attached it just freezes — freeze then resume is the whole
// pipeline either way.
func cached[T any](ctx context.Context, cache *plancache.Cache, key plancache.Key, freeze func() (T, error)) (T, bool, error) {
	if cache == nil {
		v, err := freeze()
		return v, false, err
	}
	v, hit, err := cache.Get(ctx, key, func() (any, error) { return freeze() })
	if err != nil {
		var zero T
		return zero, false, err
	}
	return v.(T), hit, nil
}

// filtered runs the predicate-filtered estimator on one store, through the
// plan cache when one is attached: the frozen filter pilot (conditional σ,
// observed selectivity, post-pilot RNG state) is cached per table version,
// group, seed, sample fraction and predicate fingerprint, so a warm
// filtered query skips its pilot entirely and answers bit-identically.
func (e *Engine) filtered(ctx context.Context, cfg core.Config, tbl *Table, grouped bool, groupKey string, tgt target, f core.Filter, fingerprint string) (core.FilteredResult, error) {
	key := plancache.Key{
		Table:          tbl.Name,
		Generation:     tbl.Gen,
		SampleFraction: cfg.SampleFraction,
		Seed:           cfg.Seed,
		SummaryPilot:   cfg.SummaryPilot,
		DisablePruning: cfg.DisablePruning,
		SummaryCRC:     tgt.ex.SummaryChecksum(),
		Grouped:        grouped,
		Group:          groupKey,
		Predicate:      fingerprint,
	}
	fp, hit, err := cached(ctx, e.cache.Load(), key, func() (core.FilterPilot, error) {
		return tgt.ex.FreezeFilterPilot(ctx, cfg, f)
	})
	if err != nil {
		return core.FilteredResult{}, err
	}
	fr, err := tgt.ex.EstimateFilteredFrozen(ctx, cfg, f, fp)
	fr.PilotCached = hit
	return fr, err
}
