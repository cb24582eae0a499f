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

// Answer is one target's answer — the whole table or one group of it: the
// value with its confidence assurance, how it was reached, and the
// accounting of its filter, its time budget and any degradation. Every route
// returns one; Result and GroupResult both embed it.
type Answer struct {
	Value float64
	CI    *stats.ConfidenceInterval // nil for COUNT / EXACT and the biased METHOD MV / MVB
	// Rows is the target's size: the table's M, or the group's |B_g| (its
	// unfiltered row count).
	Rows    int64
	Samples int64 // samples consumed (0 for EXACT/COUNT)
	// Exact reports the value was computed by scan or from metadata, not
	// sampled.
	Exact bool
	// PilotCached reports the pre-estimation came from the plan cache.
	PilotCached bool
	// Fallback reports that an unfiltered answer's value is not ISLA's own:
	// ISLA's answer lay outside the band that the stratified plain mean of
	// its draws, pilot probes included, certifies, and the value is the
	// nearest point of that band (core.Result.Fallback).
	Fallback bool
	// Filter carries the selectivity diagnostics of a WHERE query.
	Filter *FilterInfo
	// Partial is non-nil when the answer degraded to the reachable fraction
	// of the target — quarantined blocks, or shard blocks with no live
	// replica: the estimate covers Partial.CoveredRows of Partial.TotalRows.
	Partial *core.Partial
	// Truncated reports that a time-budgeted run's deadline stopped its
	// schedule of rounds early: the answer is the last completed round's,
	// which covers every block like the others.
	Truncated bool
	// AchievedPrecision is the half-width a time-budgeted run's completed
	// rounds earned (§VII-F); 0 for precision-target queries.
	AchievedPrecision float64
	// Rounds is the number of rounds a time-budgeted run completed; 0 for
	// other modes.
	Rounds int
	// PilotSize counts the draws the answer's pilot spent, cached or not:
	// the per-block probes of an unfiltered answer, the physically serviced
	// draws of a filtered one; 0 for a pilot read from summaries or an
	// answer without one.
	PilotSize int64
}

// Result is the outcome of executing one statement: the table's Answer, or
// under GROUP BY one per group in Groups, sorted by group key — the table's
// Answer then holds only Rows and the Samples summed across groups.
type Result struct {
	Query    query.Query
	Method   query.Method
	Duration time.Duration // wall time of execution
	Groups   []GroupResult
	Answer
}

// GroupResult is one group's answer within a grouped query. A group that
// failed carries Err and zero values — its siblings still answer.
type GroupResult struct {
	Group string
	Answer
	// Err is the group's failure, "" on success.
	Err string
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
// blocks, or over sharded tables whose blocks lost every replica, degrade
// to the intact fraction (Result.Partial records the loss) instead of
// failing with a *core.QuarantinedError or *core.BlocksLostError.
func (e *Engine) SetAllowPartial(v bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.base.AllowPartial = v
}

// EnablePlanCache attaches a pilot-plan cache of the given capacity
// (plancache.DefaultCapacity if capacity <= 0) and returns it. The cache
// only skips work: every ISLA query freezes a precision-independent pilot
// whether or not a cache is attached, so a repeat query on the same table,
// seed and pilot size — at any precision, confidence or sample fraction —
// resumes the cached one, skips the pilot phase entirely and returns the
// bits a cache-less engine returns.
// Replacing a table via Register invalidates its cached pilots.
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
	served, _, _ := e.metrics.Totals()
	st := Stats{
		InFlight:     e.inFlight.Load(),
		Served:       served,
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

// countQuery records one completed query in the metrics registry, which
// also counts the queries Stats reports served. A query counts as a
// fallback when its answer, or any group's, is not ISLA's own.
func (e *Engine) countQuery(table string, q query.Query, res *Result) {
	fallback := res.Fallback
	for i := range res.Groups {
		fallback = fallback || res.Groups[i].Fallback
	}
	e.metrics.Observe(table, classify(q), res.Duration, res.Samples, res.Truncated, fallback)
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
		parts, err := groupTargets(tbl, q, p.cfg)
		if err != nil {
			return Result{}, err
		}
		res.Rows = tbl.Rows()
		for _, g := range parts {
			p.group, p.tgt = g.key, g.tgt
			gr := GroupResult{Group: g.key}
			if gr.Answer, err = e.run(ctx, &p); err != nil {
				// Cancellation aborts the whole query; any other failure is
				// confined to its group so the siblings still answer.
				if ctx.Err() != nil {
					return Result{}, err
				}
				gr.Err = err.Error()
			}
			res.Groups = append(res.Groups, gr)
			res.Samples += gr.Samples
		}
	} else {
		p.tgt = target{s: tbl.Store}
		if tbl.Shard != nil {
			p.tgt.src = tbl.Shard.Source(p.cfg)
		}
		if res.Answer, err = e.run(ctx, &p); err != nil {
			return Result{}, err
		}
	}
	res.Query, res.Method = q, q.Method
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

// groupTarget is one group's key and target.
type groupTarget struct {
	key string
	tgt target
}

// groupTargets resolves a GROUP BY query's per-group targets under cfg,
// local or sharded, validating the group column either way.
func groupTargets(tbl *Table, q query.Query, cfg core.Config) ([]groupTarget, error) {
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
			tgt.src, err = tbl.Shard.GroupSource(key, cfg)
		} else {
			tgt.s, err = tbl.Groups.Group(key)
		}
		if err != nil {
			return nil, err // unreachable: keys come from the table
		}
		out[i] = groupTarget{key: key, tgt: tgt}
	}
	return out, nil
}
