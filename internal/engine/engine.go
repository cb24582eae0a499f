// Package engine executes parsed queries against a catalog of tables. It
// is the glue between the query dialect, the ISLA core and the baseline
// estimators: the paper's "system" that accepts
// SELECT AVG(column) FROM table WITH PRECISION e and returns an answer with
// a confidence assurance. catalog.go holds the tables; plan.go the resolved
// plan, the one decision point (decide) and a function per route.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/metrics"
	"isla/internal/plancache"
	"isla/internal/query"
	"isla/internal/stats"
)

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

	cache     atomic.Pointer[plancache.Cache]
	hookOnce  sync.Once
	inFlight  atomic.Int64
	served    atomic.Int64
	statsFrom time.Time
	metrics   *metrics.Registry

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
	// Cache holds plan-cache counters when a cache is attached.
	Cache *plancache.Stats
	// ScrubRuns / ScrubChecked / ScrubCorrupt count scrub passes, blocks
	// whose payload checksum was verified across them, and verification
	// failures found.
	ScrubRuns    int64
	ScrubChecked int64
	ScrubCorrupt int64
	// Quarantined maps table names to their quarantined block ids
	// (table-wide, grouped tables included); only damaged tables appear.
	Quarantined map[string][]int
}

// Stats returns a snapshot of the serving counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		InFlight:     e.inFlight.Load(),
		Served:       e.served.Load(),
		Uptime:       time.Since(e.statsFrom),
		ScrubRuns:    e.scrubRuns.Load(),
		ScrubChecked: e.scrubChecked.Load(),
		ScrubCorrupt: e.scrubCorrupt.Load(),
		Quarantined:  e.QuarantinedBlocks(),
	}
	if c := e.cache.Load(); c != nil {
		cs := c.Stats()
		st.Cache = &cs
	}
	return st
}

// QuarantinedBlocks reports every table's quarantined block ids (table-wide
// for grouped tables too); healthy tables are absent.
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
// fails — for a grouped table, in the one quarantine set its groups share.
// Results come back per table in name order; the error is non-nil only when
// a scrub could not complete (context cancelled, unreadable file) —
// corruption lands in the reports, not the error.
func (e *Engine) Scrub(ctx context.Context, workers int) ([]TableScrub, error) {
	e.scrubRuns.Add(1)
	var out []TableScrub
	for _, name := range e.Catalog.Names() {
		tbl, err := e.Catalog.Lookup(name)
		if err != nil || tbl.Store == nil {
			continue // racing deregistration, or a sharded table (workers scrub)
		}
		rep, err := tbl.Store.Scrub(ctx, workers)
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
// estimation mid-calculation. The statement is resolved into a plan once;
// the plan then runs on the table, or on each group of it in turn.
func (e *Engine) ExecuteContext(ctx context.Context, q query.Query) (Result, error) {
	tbl, err := e.Catalog.Lookup(q.Table)
	if err != nil {
		return Result{}, err
	}
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	start := time.Now()
	var res Result
	p := newPlan(q, e.queryConfig(q), tbl)

	if q.GroupBy != "" {
		parts, err := groupTargets(tbl, q)
		if err != nil {
			return Result{}, err
		}
		for _, g := range parts {
			p.group, p.tgt = g.key, g.tgt
			rows := g.tgt.ex.TotalLen()
			out, err := e.run(ctx, &p)
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
				Group: g.key, Value: out.Value, CI: out.CI, Rows: rows,
				Samples: out.Samples, Exact: out.exact, PilotCached: out.cached,
				Filter: out.Filter, Partial: out.Partial,
			})
			res.Samples += out.Samples
		}
	} else {
		p.tgt = target{s: tbl.Store, ex: core.LocalExecutor{S: tbl.Store}}
		if tbl.Shard != nil {
			p.tgt.ex = tbl.Shard.Executor()
		}
		out, err := e.run(ctx, &p)
		if err != nil {
			return Result{}, err
		}
		res = out.Result
	}
	res.Query, res.Method, res.Rows = q, q.Method, tbl.Rows()
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

// groupTarget is one group's key and execution surface.
type groupTarget struct {
	key string
	tgt target
}

// groupTargets resolves a GROUP BY query's per-group execution surfaces,
// local or sharded, validating the group column either way.
func groupTargets(tbl *Table, q query.Query) ([]groupTarget, error) {
	var col string
	var keys []string
	switch {
	case tbl.Shard != nil:
		if col, keys = tbl.Shard.GroupColumn(), tbl.Shard.GroupKeys(); len(keys) == 0 {
			return nil, fmt.Errorf("engine: sharded table %q has no groups in its manifest; GROUP BY needs one", q.Table)
		}
	case tbl.Groups != nil:
		col, keys = tbl.Groups.Column(), tbl.Groups.Groups()
	default:
		return nil, fmt.Errorf("engine: table %q is not grouped; register it with RegisterGrouped to GROUP BY", q.Table)
	}
	if col != "" && q.GroupBy != col {
		return nil, fmt.Errorf("engine: unknown group column %q on table %q (group column is %q)", q.GroupBy, q.Table, col)
	}
	out := make([]groupTarget, len(keys))
	for i, key := range keys {
		var tgt target
		var err error
		if tbl.Shard != nil {
			tgt.ex, err = tbl.Shard.GroupExecutor(key)
		} else if tgt.s, err = tbl.Groups.Group(key); err == nil {
			tgt.ex = core.LocalExecutor{S: tgt.s}
		}
		if err != nil {
			return nil, err // unreachable: keys come from the table
		}
		out[i] = groupTarget{key: key, tgt: tgt}
	}
	return out, nil
}
