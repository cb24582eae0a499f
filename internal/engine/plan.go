package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"isla/internal/baseline"
	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/leverage"
	"isla/internal/plancache"
	"isla/internal/query"
	"isla/internal/stats"
	"isla/internal/timebound"
)

// target is the execution surface a plan runs against. ex is always set; s
// is the backing local store, nil when the blocks live on remote shards —
// which rules out the routes that read raw bytes locally (exact scans,
// baselines, time-budgeted runs).
type target struct {
	s  *block.Store
	ex core.Executor
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

// key is the plan-cache key of the plan's pre-estimation: table version,
// group (grouped-ness participates so the empty group key never collides
// with the table-level entry), seed, sample fraction and content
// fingerprint, plus — for a filter pilot — the predicate fingerprint. A
// pilot's RNG consumption never depends on precision or confidence, so one
// entry serves every precision target; the sample fraction still
// participates so entries map one-to-one onto distinct sampling plans.
func (p *plan) key() plancache.Key {
	return plancache.Key{
		Table:          p.tbl.Name,
		Generation:     p.tbl.Gen,
		SampleFraction: p.cfg.SampleFraction,
		Seed:           p.cfg.Seed,
		SummaryPilot:   p.cfg.SummaryPilot,
		SummaryCRC:     p.tgt.ex.SummaryChecksum(),
		Grouped:        p.q.GroupBy != "",
		Group:          p.group,
		Predicate:      p.fingerprint,
	}
}

// capabilities is what decide may know about a plan's target besides the
// statement itself.
type capabilities struct {
	// local: the raw bytes are on this node (a store, not shards).
	local bool
	// planCache: a pilot-plan cache is attached to the engine.
	planCache bool
	// rows is the target's size.
	rows int64
	// quarantined lists the target's quarantined block ids (nil when
	// healthy); coveredRows counts the rows outside them.
	quarantined []int
	coveredRows int64
}

// capabilities probes the plan's target.
func (e *Engine) capabilities(p *plan) capabilities {
	c := capabilities{
		local:     p.tgt.s != nil,
		planCache: e.cache.Load() != nil,
		rows:      p.tgt.ex.TotalLen(),
	}
	if c.local {
		if c.quarantined = p.tgt.s.QuarantinedIDs(); c.quarantined != nil {
			c.coveredRows = p.tgt.s.CoveredLen()
		}
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
	// routeIID: the i.i.d. pipeline of a local table without a plan cache.
	routeIID
	// routeTimeBound: §VII-F, precision derived from a wall-clock budget.
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

	// Shards refuse what cannot be pushed down: everything that needs the
	// raw bytes on the serving node.
	if !c.local && !metadata {
		switch {
		case q.TimeBudget > 0:
			return 0, fmt.Errorf("%w: time-budgeted runs", ErrShardUnsupported)
		case exact:
			return 0, fmt.Errorf("%w: exact scans", ErrShardUnsupported)
		case !isla:
			return 0, fmt.Errorf("%w: baseline estimators", ErrShardUnsupported)
		}
	}
	// Quarantined stores: exact routes proceed (served from trusted footers,
	// or failing inside the scan with a CorruptBlockError) and so does the
	// unfiltered ISLA estimator, degrading or refusing under core's
	// AllowPartial policy. Everything else refuses with the typed error:
	// filtered estimates scale by the full M (Horvitz–Thompson would bias on
	// partial coverage), baselines carry no partial accounting, and a
	// time-budgeted run already composes truncation — no CI could absorb
	// quarantine as well.
	if c.quarantined != nil && !metadata && !exact && (p.filtered || !isla || q.TimeBudget > 0) {
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
	case c.local && !c.planCache:
		return routeIID, nil
	default:
		return routeFrozen, nil
	}
}

// partial is one target's answer — the whole table or a single group: the
// Result fields a route fills (value, interval, samples, diagnostics, the
// time-budget and degradation accounting), plus what only a group reports.
type partial struct {
	Result
	exact  bool // computed by scan or from metadata, not sampled
	cached bool // the pre-estimation came from the plan cache
}

// run decides the plan's route on its target and executes it.
func (e *Engine) run(ctx context.Context, p *plan) (partial, error) {
	r, err := decide(p, e.capabilities(p))
	if err != nil {
		return partial{}, err
	}
	var out partial
	switch r {
	case routeMetadataCount:
		return partial{Result: Result{Value: float64(p.tgt.ex.TotalLen())}, exact: true}, nil
	case routeZeroCount:
		return partial{Result: Result{Filter: &FilterInfo{}}, exact: true}, nil
	case routeExact, routeSmallGroupExact:
		return p.exact()
	case routeFiltered:
		return e.filtered(ctx, p)
	case routeFrozen:
		out, err = e.frozen(ctx, p)
	case routeIID:
		out, err = p.iid(ctx)
	case routeTimeBound:
		out, err = e.timeBound(ctx, p)
	case routeBaseline:
		out, err = p.baseline()
	}
	if err != nil {
		return partial{}, err
	}
	return p.sumOf(out), nil
}

// sumOf turns an unfiltered AVG answer into the statement's aggregate: SUM =
// AVG · M (§VII-D), the CI half-width scaling by M too. A degraded run covers
// only the intact rows, so its SUM is the sum over those rows — what Partial
// tells the caller it got.
func (p *plan) sumOf(out partial) partial {
	if p.q.Agg != query.SUM {
		return out
	}
	scale := float64(p.tgt.ex.TotalLen())
	if out.Partial != nil {
		scale = float64(out.Partial.CoveredRows)
	}
	out.Value *= scale
	if out.CI != nil {
		ci := *out.CI
		ci.Center = out.Value
		ci.HalfWidth *= scale
		out.CI = &ci
	}
	return out
}

// exact answers from the raw rows. A filtered statement scans under the full
// predicate — Predicate.Match is the semantics the compiled filter is checked
// against, never the other way round.
func (p *plan) exact() (partial, error) {
	out := partial{exact: true}
	if !p.filtered {
		var err error
		out.Value, err = p.tgt.s.ExactMean()
		return p.sumOf(out), err
	}
	n, sum, err := core.ExactFiltered(p.tgt.s, query.Filter(p.q.Predicates))
	switch {
	case p.q.Agg == query.COUNT:
		out.Value = float64(n)
	case err == nil && n == 0:
		err = core.ErrNoMatch
	case p.q.Agg == query.SUM:
		out.Value = sum
	default:
		out.Value = sum / float64(n)
	}
	return out, err
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
func (e *Engine) filtered(ctx context.Context, p *plan) (partial, error) {
	ex, cfg, f := p.tgt.ex, p.cfg, p.filter
	fp, hit, err := cached(ctx, e.cache.Load(), p.key(), func() (core.FilterPilot, error) {
		return ex.FreezeFilterPilot(ctx, cfg, f)
	})
	if err != nil {
		return partial{}, err
	}
	fr, err := ex.EstimateFilteredFrozen(ctx, cfg, f, fp)
	out := partial{Result: Result{Samples: fr.Drawn, Filter: &FilterInfo{
		Planned: fr.Planned, Drawn: fr.Drawn, Accepted: fr.Accepted, Selectivity: fr.Selectivity,
		PrunedBlocks: fr.PrunedBlocks, ContainedBlocks: fr.ContainedBlocks}}, cached: hit}
	if errors.Is(err, core.ErrNoMatch) && p.q.Agg == query.COUNT {
		// No sampled row matched: the count estimate is zero.
		return out, nil
	}
	if err != nil {
		return partial{}, err
	}
	ci := fr.CI
	switch p.q.Agg {
	case query.COUNT:
		out.Value, ci = fr.Count, fr.CountCI
	case query.SUM:
		out.Value, ci = fr.Sum, fr.SumCI
	default:
		out.Value = fr.Avg
	}
	out.CI = &ci
	return out, nil
}

// frozenPilot fetches (or builds, single-flighted) the plan's frozen
// pre-estimation; precision, confidence and sample fraction are re-derived
// per query via RederivePilot.
func (e *Engine) frozenPilot(ctx context.Context, p *plan) (core.FrozenPilot, bool, error) {
	ex, cfg := p.tgt.ex, p.cfg
	return cached(ctx, e.cache.Load(), p.key(), func() (core.FrozenPilot, error) {
		return ex.FreezePilot(ctx, cfg)
	})
}

// frozen is the per-block pipeline: every sharded ISLA query, and every
// local one once a plan cache is attached.
func (e *Engine) frozen(ctx context.Context, p *plan) (partial, error) {
	fp, hit, err := e.frozenPilot(ctx, p)
	if err != nil {
		return partial{}, err
	}
	out, err := p.tgt.ex.EstimateFrozen(ctx, p.cfg, fp)
	return fromCore(&out, hit), err
}

// fromCore folds an unfiltered estimator's result into the answer shape.
func fromCore(out *core.Result, hit bool) partial {
	out.PilotCached = hit
	return partial{Result: Result{Value: out.Estimate, CI: &out.CI, Samples: out.TotalSamples,
		Detail: out, Partial: out.Partial}, cached: hit}
}

// iid keeps a local table without a plan cache on the i.i.d. pipeline (unless
// the base config asks for per-block bounds).
func (p *plan) iid(ctx context.Context) (partial, error) {
	out, err := core.Estimate(ctx, p.tgt.s, p.cfg)
	return fromCore(&out, false), err
}

// timeBound derives the precision from the statement's wall-clock budget
// (§VII-F), resuming the cached pilot when a plan cache is attached.
func (e *Engine) timeBound(ctx context.Context, p *plan) (partial, error) {
	var opts timebound.Options
	var hit bool
	if e.cache.Load() != nil {
		fp, h, err := e.frozenPilot(ctx, p)
		if err != nil {
			return partial{}, err
		}
		opts.Frozen, hit = &fp, h
	}
	tb, err := timebound.Estimate(ctx, p.tgt.s, p.cfg,
		time.Duration(p.q.TimeBudget*float64(time.Second)), opts)
	out := fromCore(&tb.Result, hit)
	out.Truncated, out.AchievedPrecision, out.CoveredBlocks = tb.Truncated, tb.AchievedPrecision, tb.CoveredBlocks
	return out, err
}

// baseline runs one of the comparison estimators at the sample size the
// i.i.d. pre-estimation derives.
func (p *plan) baseline() (partial, error) {
	s, cfg := p.tgt.s, p.cfg
	r := stats.NewRNG(cfg.Seed)
	pilot, err := core.PreEstimate(s, cfg, r)
	if err != nil {
		return partial{}, err
	}
	m := pilot.SampleSize
	ci, err := stats.MeanCI(0, pilot.Sigma, m, cfg.Confidence)
	if err != nil {
		return partial{}, err
	}
	var v float64
	switch p.q.Method {
	case query.MethodUS:
		v, err = baseline.Uniform(s, m, r)
	case query.MethodSTS:
		v, err = baseline.Stratified(s, m, r)
	case query.MethodMV:
		v, err = baseline.MeasureBiased(s, m, r)
	case query.MethodMVB:
		var bounds leverage.Boundaries
		bounds, err = leverage.NewBoundaries(pilot.Sketch0, pilot.Sigma, cfg.P1, cfg.P2)
		if err == nil {
			v, err = baseline.MeasureBiasedBounded(s, m, bounds, r)
		}
	default:
		err = errors.New("engine: unsupported method")
	}
	if err != nil {
		return partial{}, err
	}
	ci.Center = v
	return partial{Result: Result{Value: v, CI: &ci, Samples: m}}, nil
}
