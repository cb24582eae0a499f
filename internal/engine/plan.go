package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"isla/internal/baseline"
	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/leverage"
	"isla/internal/plancache"
	"isla/internal/query"
)

// target is what a plan runs against: the whole table or one group of it.
// s is the backing local store, nil when the blocks live on remote shards —
// which rules out the routes that read raw bytes locally (exact scans and
// METHOD MVB). src is the query's block source, which every sampling route
// runs over: a shard target's is set when the target is resolved, a local
// one's built on first use.
type target struct {
	s   *block.Store
	src core.BlockSource
}

// source returns the target's block source, binding a local store to cfg's
// worker pool the first time.
func (t *target) source(cfg core.Config) core.BlockSource {
	if t.src == nil {
		t.src = core.LocalExecutor{S: t.s}.Source(cfg)
	}
	return t.src
}

// plan is one resolved statement: the query, its derived configuration, the
// table version it runs against and the WHERE conjunction compiled once —
// then, per execution, the target (the whole table or one group of it).
type plan struct {
	q   query.Query
	cfg core.Config
	tbl *Table
	// filter is the compiled WHERE conjunction and fingerprint its canonical
	// spelling, both meaningful only when filtered.
	filter      core.Filter
	filtered    bool
	fingerprint string
	// group is the target's group key ("" for the whole table).
	group string
	tgt   target
}

// newPlan resolves q against one table version under cfg.
func newPlan(q query.Query, cfg core.Config, tbl *Table) plan {
	p := plan{q: q, cfg: cfg, tbl: tbl, filtered: len(q.Predicates) > 0}
	if p.filtered {
		iv, _ := query.CompileInterval(q.Predicates)
		p.filter = core.Filter(iv)
		p.fingerprint = query.PredicateString(q.Predicates)
	}
	return p
}

// key is the plan-cache key of the plan's pre-estimation: exactly what the
// frozen pilot's draws depend on — the table version (name and catalog
// generation), the group (grouped-ness participates so the empty group key
// never collides with the table-level entry), the seed, the pilot size, the
// summary-pilot setting and, for a filter pilot, the predicate fingerprint.
// Precision, confidence and sample fraction only rescale Eq. 1 after the
// pilot, so one entry serves every one of them.
func (p *plan) key() plancache.Key {
	return plancache.Key{
		Table:        p.tbl.Name,
		Generation:   p.tbl.Gen,
		Seed:         p.cfg.Seed,
		PilotSize:    p.cfg.PilotSize,
		SummaryPilot: p.cfg.SummaryPilot,
		Grouped:      p.q.GroupBy != "",
		Group:        p.group,
		Predicate:    p.fingerprint,
	}
}

// capabilities is what decide may know about a plan's target besides the
// statement itself.
type capabilities struct {
	// local: the raw bytes are on this node (a store, not shards).
	local bool
	// rows is the target's size.
	rows int64
	// quarantined lists the target's quarantined block ids (nil when
	// healthy); coveredRows counts the rows outside them.
	quarantined []int
	coveredRows int64
}

// capabilities probes the plan's target.
func (e *Engine) capabilities(p *plan) capabilities {
	if p.tgt.s == nil {
		return capabilities{rows: p.tgt.src.TotalLen()}
	}
	c := capabilities{local: true, rows: p.tgt.s.TotalLen()}
	if c.quarantined = p.tgt.s.QuarantinedIDs(); c.quarantined != nil {
		c.coveredRows = p.tgt.s.CoveredLen()
	}
	return c
}

// route names the one way a plan executes.
type route int

const (
	// routeMetadataCount: unfiltered COUNT, exact from the layout.
	routeMetadataCount route = iota
	// routeZeroCount: COUNT under a contradictory conjunction.
	routeZeroCount
	// routeExact: METHOD EXACT — summaries when trusted footers carry them,
	// a scan otherwise.
	routeExact
	// routeSmallGroupExact: a local group of at most smallGroupRows rows,
	// served like routeExact — sampling a 50-row group buys nothing.
	routeSmallGroupExact
	// routeFiltered: rejection sampling with the Horvitz–Thompson correction.
	routeFiltered
	// routeFrozen: freeze (or fetch) the per-block pilot, resume it.
	routeFrozen
	// routeTimeBound: §VII-F, online rounds against a wall-clock budget.
	routeTimeBound
	// routeBaseline: the US / STS / MV / MVB comparison estimators.
	routeBaseline
)

// smallGroupRows is the group size at or below which a local GROUP BY scans
// the group exactly instead of sampling it: below it, Eq. 1 would sample
// most of the group anyway. Shards cannot scan, so a sharded group of any
// size is sampled.
const smallGroupRows = 2000

// decide is the engine's one decision point: every refusal and every route,
// from the statement and the target's capabilities alone. It runs per
// target, so a grouped query's refusals stay per group.
func decide(p *plan, c capabilities) (route, error) {
	q := p.q
	isla := q.Method == query.MethodISLA
	// Unfiltered COUNT is exact from metadata on every kind of target,
	// whatever else the statement asks for.
	metadata := q.Agg == query.COUNT && !p.filtered
	smallGroup := q.GroupBy != "" && isla && c.local && c.rows <= smallGroupRows
	exact := q.Method == query.MethodExact || smallGroup
	// MVB sums per boundary region, which no phase reply carries, so it
	// draws from the local store.
	mvb := q.Method == query.MethodMVB

	// Shards refuse what cannot be pushed down: everything that needs the
	// raw bytes on the serving node.
	if !c.local && !metadata {
		switch {
		case exact:
			return 0, fmt.Errorf("%w: exact scans", ErrShardUnsupported)
		case mvb:
			return 0, fmt.Errorf("%w: METHOD MVB", ErrShardUnsupported)
		}
	}
	// Quarantined stores: exact routes proceed (served from trusted footers,
	// or failing inside the scan with a CorruptBlockError) and so do the
	// unfiltered estimators, ISLA and the US / STS / MV baselines, degrading
	// or refusing under core's AllowPartial policy; a time-budgeted run is an
	// online session, which refuses for itself (core.RefuseQuarantined).
	// Everything else refuses here with the typed error: filtered estimates
	// scale by the full M (Horvitz–Thompson would bias on partial coverage)
	// and MVB carries no partial accounting.
	if c.quarantined != nil && !metadata && !exact && (p.filtered || mvb) {
		return 0, &core.QuarantinedError{Blocks: c.quarantined, CoveredRows: c.coveredRows, TotalRows: c.rows}
	}
	switch {
	case p.filtered && p.filter.Contradiction():
		// Decided at compile time (e.g. v > 5 AND v < 3): COUNT is exactly
		// zero and AVG/SUM have no matching rows, without drawing — or even
		// planning — a single sample.
		if q.Agg == query.COUNT {
			return routeZeroCount, nil
		}
		return 0, core.ErrNoMatch
	case metadata:
		return routeMetadataCount, nil
	case smallGroup:
		return routeSmallGroupExact, nil
	case exact:
		return routeExact, nil
	case p.filtered:
		return routeFiltered, nil
	case !isla:
		return routeBaseline, nil
	case q.TimeBudget > 0:
		return routeTimeBound, nil
	default:
		return routeFrozen, nil
	}
}

// ErrNonFinite refuses an answer whose value or interval bound is NaN or
// infinite: NaN rows reach exact scans and draws, and a SUM can overflow.
var ErrNonFinite = errors.New("engine: answer is not a finite number")

// run decides the plan's route on its target and executes it. A failed run
// answers only the target's size.
func (e *Engine) run(ctx context.Context, p *plan) (Answer, error) {
	c := e.capabilities(p)
	a, err := e.route(ctx, p, c)
	if err == nil && !finite(a) {
		err = fmt.Errorf("%w: %v", ErrNonFinite, a.Value)
	}
	if err != nil {
		a = Answer{}
	}
	a.Rows = c.rows
	return a, err
}

// finite reports whether the answer's value and interval bounds are finite.
func finite(a Answer) bool {
	lo, hi := a.Value, a.Value
	if a.CI != nil {
		lo, hi = a.CI.Lo(), a.CI.Hi()
	}
	return math.Abs(a.Value) <= math.MaxFloat64 && math.Abs(lo) <= math.MaxFloat64 && math.Abs(hi) <= math.MaxFloat64
}

// route executes the one route decide picks for the plan's target.
func (e *Engine) route(ctx context.Context, p *plan, c capabilities) (Answer, error) {
	r, err := decide(p, c)
	if err != nil {
		return Answer{}, err
	}
	var a Answer
	switch r {
	case routeMetadataCount:
		return Answer{Value: float64(c.rows), Exact: true}, nil
	case routeZeroCount:
		return Answer{Filter: &FilterInfo{}, Exact: true}, nil
	case routeExact, routeSmallGroupExact:
		return p.exact()
	case routeFiltered:
		return e.filtered(ctx, p)
	case routeFrozen:
		a, err = e.frozen(ctx, p)
	case routeTimeBound:
		a, err = e.timeBound(ctx, p)
	case routeBaseline:
		a, err = e.baseline(ctx, p)
	}
	return p.sumOf(a, c.rows), err // run drops a failed answer
}

// sumOf turns an unfiltered AVG answer over a target of rows rows into the
// statement's aggregate: SUM = AVG · M (§VII-D), the CI half-width scaling
// by M too. A degraded run covers
// only the intact rows, so its SUM is the sum over those rows — what Partial
// tells the caller it got.
func (p *plan) sumOf(a Answer, rows int64) Answer {
	if p.q.Agg != query.SUM {
		return a
	}
	scale := float64(rows)
	if a.Partial != nil {
		scale = float64(a.Partial.CoveredRows)
	}
	a.Value *= scale
	if a.CI != nil {
		ci := *a.CI
		ci.Center = a.Value
		ci.HalfWidth *= scale
		a.CI = &ci
	}
	return a
}

// exact answers from the raw rows. A filtered statement scans under the full
// predicate — Predicate.Match is the semantics the compiled filter is checked
// against, never the other way round.
func (p *plan) exact() (Answer, error) {
	a := Answer{Exact: true}
	if !p.filtered {
		var err error
		a.Value, err = p.tgt.s.ExactMean()
		return p.sumOf(a, p.tgt.s.TotalLen()), err
	}
	n, sum, err := core.ExactFiltered(p.tgt.s, query.Filter(p.q.Predicates))
	switch {
	case p.q.Agg == query.COUNT:
		a.Value = float64(n)
	case err == nil && n == 0:
		err = core.ErrNoMatch
	case p.q.Agg == query.SUM:
		a.Value = sum
	default:
		a.Value = sum / float64(n)
	}
	return a, err
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
	t, _ := v.(T) // zero on error
	return t, hit, err
}

// filtered runs the predicate-filtered estimator, through the plan cache when
// one is attached: the frozen filter pilot (conditional σ, observed
// selectivity, post-pilot RNG state) is cached, so a warm filtered query
// skips its pilot entirely and answers bit-identically. COUNT is the
// estimated selectivity count (Horvitz–Thompson p̂·M).
func (e *Engine) filtered(ctx context.Context, p *plan) (Answer, error) {
	src, cfg, f := p.tgt.source(p.cfg), p.cfg, p.filter
	fp, hit, err := cached(ctx, e.cache.Load(), p.key(), func() (core.FilterPilot, error) {
		return core.FreezeFilterPilot(ctx, src, cfg, f)
	})
	if err != nil {
		return Answer{}, err
	}
	fr, err := core.EstimateFilteredFrozen(ctx, src, cfg, f, fp, nil)
	a := Answer{Samples: fr.Drawn, PilotCached: hit, PilotSize: fp.Drawn - fp.PrunedDraws, Filter: &FilterInfo{
		Planned: fr.Planned, Drawn: fr.Drawn, Accepted: fr.Accepted, Selectivity: fr.Selectivity,
		PrunedBlocks: fr.PrunedBlocks, ContainedBlocks: fr.ContainedBlocks}}
	if errors.Is(err, core.ErrNoMatch) && p.q.Agg == query.COUNT {
		// No sampled row matched: the count estimate is zero.
		return a, nil
	}
	if err != nil {
		return Answer{}, err
	}
	ci := fr.CI
	switch p.q.Agg {
	case query.COUNT:
		a.Value, ci = fr.Count, fr.CountCI
	case query.SUM:
		a.Value, ci = fr.Sum, fr.SumCI
	default:
		a.Value = fr.Avg
	}
	a.CI = &ci
	return a, nil
}

// frozenPilot fetches (or builds, single-flighted) the plan's frozen
// pre-estimation — or, with no cache attached, just freezes it; precision,
// confidence and sample fraction are re-derived per query via
// RederivePilot. Every unfiltered route starts here, so the cache decides
// only whether the pilot runs, never which estimator answers.
func (e *Engine) frozenPilot(ctx context.Context, p *plan) (core.FrozenPilot, bool, error) {
	src, cfg := p.tgt.source(p.cfg), p.cfg
	return cached(ctx, e.cache.Load(), p.key(), func() (core.FrozenPilot, error) {
		return core.FreezePilot(ctx, src, cfg)
	})
}

// frozen is the unfiltered ISLA pipeline on every target.
func (e *Engine) frozen(ctx context.Context, p *plan) (Answer, error) {
	fp, hit, err := e.frozenPilot(ctx, p)
	if err != nil {
		return Answer{}, err
	}
	out, err := core.EstimateFrozen(ctx, p.tgt.source(p.cfg), p.cfg, fp, nil)
	return fromCore(out, hit), err
}

// fromCore folds an unfiltered estimator's result into the answer. The
// answer points at a copy of the interval, so the result does not escape.
func fromCore(out core.Result, hit bool) Answer {
	ci := out.CI
	return Answer{Value: out.Estimate, CI: &ci, Samples: out.TotalSamples,
		PilotCached: hit, Fallback: out.Fallback, Partial: out.Partial, PilotSize: out.Pilot.PilotSize}
}

// timeBound runs the plan's frozen pilot as an online session in rounds
// against the statement's wall-clock budget (§VII-F); fetching or freezing
// that pilot counts against the budget.
func (e *Engine) timeBound(ctx context.Context, p *plan) (Answer, error) {
	var hit bool
	freeze := func(ctx context.Context) (fp core.FrozenPilot, err error) {
		fp, hit, err = e.frozenPilot(ctx, p)
		return fp, err
	}
	tb, err := core.EstimateTimeBound(ctx, p.tgt.source(p.cfg), p.cfg,
		time.Duration(p.q.TimeBudget*float64(time.Second)), freeze)
	a := fromCore(tb.Result, hit)
	a.Truncated, a.AchievedPrecision, a.Rounds = tb.Truncated, tb.CI.HalfWidth, tb.Rounds
	return a, err
}

// baseline runs one of the comparison estimators at the sample size the
// plan's frozen pilot derives, drawing from the generator it left off: US,
// STS and MV through one phase of the target's source, MVB from the local
// store. Each answers with the interval its own draws earn, if it has one.
func (e *Engine) baseline(ctx context.Context, p *plan) (Answer, error) {
	src, cfg := p.tgt.source(p.cfg), p.cfg
	fp, hit, err := e.frozenPilot(ctx, p)
	if err != nil {
		return Answer{}, err
	}
	pilot, err := core.RederivePilot(fp.Base, cfg, src.TotalLen())
	if err != nil {
		return Answer{}, err
	}
	r, m := fp.RNG.RNG(), pilot.SampleSize
	var est baseline.Estimate
	switch p.q.Method {
	case query.MethodUS:
		est, err = baseline.Uniform(ctx, src, cfg, m, r)
	case query.MethodSTS:
		est, err = baseline.Stratified(ctx, src, cfg, m, r)
	case query.MethodMV:
		est, err = baseline.MeasureBiased(ctx, src, cfg, m, r)
	case query.MethodMVB:
		var bounds leverage.Boundaries
		bounds, err = cfg.Bounds(pilot.Sketch0, pilot.Sigma)
		if err == nil {
			est.Value, err = baseline.MeasureBiasedBounded(p.tgt.s, m, bounds, r)
			est.Samples = m
		}
	default:
		err = errors.New("engine: unsupported method")
	}
	if err != nil {
		return Answer{}, err
	}
	return Answer{Value: est.Value, CI: est.CI, Samples: est.Samples, Partial: est.Partial,
		PilotCached: hit, PilotSize: pilot.PilotSize}, nil
}
