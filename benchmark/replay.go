package main

import (
	"context"
	"fmt"
	"math"

	"isla/internal/block"
	"isla/internal/cluster"
	"isla/internal/core"
	"isla/internal/engine"
	"isla/internal/leverage"
	"isla/internal/modulate"
	"isla/internal/plancache"
	"isla/internal/query"
	"isla/internal/stats"
)

// replayer runs statements stage by stage through the layers' public
// functions, one span per call, on a single goroutine. The stages are the
// engine's own pipeline spelled out — parse, catalog lookup, plan-cache
// get (pilot on a miss), plan derivation, per-block sampling and
// modulation, block merge — and every replayed answer is compared bit for
// bit with the engine's, which is what makes the decomposition the
// pipeline rather than a look-alike.
type replayer struct {
	rec    *recorder
	cat    *engine.Catalog
	cache  *plancache.Cache
	base   core.Config
	tables map[string]localTable
	shard  *cluster.ShardTable // non-nil: table "s" executes on the shards
	// later holds the whole-call measurements a statement's stages queue
	// up: they run as root spans once the staged "replay" span has closed,
	// so they never inflate it.
	later []func() error
}

func newReplayer(rec *recorder, cat *engine.Catalog, tables map[string]localTable, shard *cluster.ShardTable) *replayer {
	base := core.DefaultConfig()
	base.Workers = 0 // sequential, so children's times subtract from parents'
	return &replayer{rec: rec, cat: cat, cache: plancache.New(4096), base: base, tables: tables, shard: shard}
}

// config lands the statement's overrides on the base config, as the
// engine's queryConfig does.
func (rp *replayer) config(q query.Query) core.Config {
	cfg := rp.base
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

// target is one block set a statement aggregates: the table or one group.
type replayTarget struct {
	group string
	store *block.Store       // local blocks (always set: shard workers are in-process)
	view  *cluster.ShardView // set when the statement executes on the shards
}

// replay runs one statement through the staged pipeline under a "replay"
// root span and returns the answer the stages produce.
func (rp *replayer) replay(ctx context.Context, sql string) (answer, error) {
	var (
		ans answer
		err error
	)
	rp.later = rp.later[:0]
	rp.rec.in("replay", func() { ans, err = rp.stages(ctx, sql) })
	for _, fn := range rp.later {
		if err == nil {
			err = fn()
		}
	}
	if err != nil {
		return answer{}, fmt.Errorf("replay: %s: %w", sql, err)
	}
	return ans, nil
}

// whole queues fn to run under a root span named name after the staged
// replay: a whole-call measurement of something the stages spelled out.
func (rp *replayer) whole(name string, fn func() error) {
	rp.later = append(rp.later, func() error {
		var err error
		rp.rec.in(name, func() { err = fn() })
		return err
	})
}

func (rp *replayer) stages(ctx context.Context, sql string) (answer, error) {
	var (
		q   query.Query
		err error
	)
	rp.rec.in("query.parse", func() { q, err = query.Parse(sql) })
	if err != nil {
		return answer{}, err
	}
	var f *core.Filter
	if len(q.Predicates) > 0 {
		var iv query.Interval
		var ok bool
		rp.rec.in("query.compile_interval", func() { iv, ok = query.CompileInterval(q.Predicates) })
		if !ok {
			return answer{}, fmt.Errorf("replay: %s: predicate is not an interval", sql)
		}
		fl := core.IntervalFilter(iv.Lo, iv.Hi)
		f = &fl
	}
	rp.rec.in("catalog.lookup", func() { _, err = rp.cat.Lookup(q.Table) })
	if err != nil {
		return answer{}, err
	}
	cfg := rp.config(q)
	tbl := rp.tables[q.Table]

	var targets []replayTarget
	switch {
	case q.GroupBy != "":
		for _, key := range tbl.groups.Groups() {
			gs, err := tbl.groups.Group(key)
			if err != nil {
				return answer{}, err
			}
			targets = append(targets, replayTarget{group: key, store: gs})
		}
	case rp.shard != nil:
		targets = []replayTarget{{store: tbl.store, view: rp.shard.View()}}
	default:
		targets = []replayTarget{{store: tbl.store}}
	}

	var ans answer
	for _, tg := range targets {
		key := plancache.Key{Table: q.Table, Seed: cfg.Seed, Grouped: q.GroupBy != "", Group: tg.group,
			Predicate: query.PredicateString(q.Predicates)}
		var v float64
		var samples int64
		switch {
		case tg.view != nil:
			v, samples, err = rp.sharded(ctx, q, cfg, tg, f, key)
		case f != nil:
			v, samples, err = rp.filtered(ctx, q, cfg, tg.store, *f, key)
		default:
			v, samples, err = rp.unfiltered(ctx, q, cfg, tg.store, key)
		}
		if err != nil {
			return answer{}, err
		}
		ans.Samples += samples
		if q.GroupBy != "" {
			ans.Groups = append(ans.Groups, v)
		} else {
			ans.Value = v
		}
	}
	return ans, nil
}

// get is the plan-cache stage: a "plancache.get" span whose child, on a
// miss, is the pilot span named pilotName.
func (rp *replayer) get(ctx context.Context, key plancache.Key, pilotName string, build func() (any, int64, error)) (any, error) {
	var (
		v   any
		err error
	)
	outcome := "hit"
	id := rp.rec.in("plancache.get", func() {
		v, _, err = rp.cache.Get(ctx, key, func() (any, error) {
			outcome = "miss"
			var fp any
			var samples int64
			var berr error
			ps := rp.rec.in(pilotName, func() { fp, samples, berr = build() })
			rp.rec.count(ps, "samples", samples)
			return fp, berr
		})
	})
	rp.rec.count(id, outcome, 1)
	return v, err
}

// unfiltered is the AVG/SUM pipeline of engine.average's cached path:
// frozen pilot, re-derived plans, per-block Algorithm 1 + Algorithm 2,
// summarization.
func (rp *replayer) unfiltered(ctx context.Context, q query.Query, cfg core.Config, s *block.Store, key plancache.Key) (float64, int64, error) {
	ex := core.LocalExecutor{S: s}
	v, err := rp.get(ctx, key, "core.pilot", func() (any, int64, error) {
		fp, err := ex.FreezePilot(ctx, cfg)
		return fp, fp.Base.PilotSize, err
	})
	if err != nil {
		return 0, 0, err
	}
	fp := v.(core.FrozenPilot)
	total := s.TotalLen()

	var overall core.Pilot
	var plans []*core.Plan
	rp.rec.in("core.plan", func() {
		if overall, err = core.RederivePilot(fp.Base, cfg, total); err == nil {
			plans, err = core.PlansFromPilots(fp.Pilots, overall, cfg, total)
		}
	})
	if err != nil {
		return 0, 0, err
	}

	blocks := s.Blocks()
	perBlock := make([]core.BlockResult, len(blocks))
	var shift float64
	calc := rp.rec.in("core.calc", func() {
		// Seeds come off the frozen generator for planned blocks only, in
		// block order, before any block runs — runPlans' discipline.
		r := fp.RNG.RNG()
		seeds := make([]uint64, len(plans))
		for i, p := range plans {
			if p != nil {
				seeds[i] = r.Uint64()
				shift = p.Shift
			}
		}
		for i, b := range blocks {
			p := plans[i]
			if p == nil {
				perBlock[i] = core.BlockResult{BlockID: b.ID()}
				continue
			}
			var acc *leverage.Accum
			var m int64
			id := rp.rec.in("block.sample", func() { acc, m, err = p.SampleBlock(b, stats.NewRNG(seeds[i])) })
			if err != nil {
				return
			}
			rp.rec.count(id, "samples", m)
			var answer float64
			var detail modulate.Result
			id = rp.rec.in("modulate.run", func() { answer, detail, err = p.Resolve(acc) })
			if err != nil {
				return
			}
			rp.rec.count(id, "iterations", int64(detail.Iterations))
			perBlock[i] = core.BlockResult{BlockID: b.ID(), Len: b.Len(), Samples: m, Answer: answer, Detail: detail}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	var res core.Result
	rp.rec.in("core.summarize", func() { res = core.SummarizeBlocks(cfg, overall, shift, perBlock, total) })
	rp.rec.count(calc, "samples", res.TotalSamples)

	// The whole-call measurement of the same calculation, for calc_self.
	rp.whole("core.calc_whole", func() error {
		whole, err := ex.EstimateFrozen(ctx, cfg, fp)
		if err == nil && math.Float64bits(whole.Estimate) != math.Float64bits(res.Estimate) {
			err = fmt.Errorf("staged estimate %v differs from EstimateFrozen's %v", res.Estimate, whole.Estimate)
		}
		return err
	})
	v2 := res.Estimate
	if q.Agg == query.SUM {
		v2 *= float64(total)
	}
	return v2, res.TotalSamples, nil
}

// rawDraws mirrors core's conversion of a target accepted-sample count
// into raw draws.
func rawDraws(want int64, selectivity float64, totalLen int64) int64 {
	if want < 1 {
		want = 1
	}
	rawF := float64(want) / selectivity
	if !(rawF > 0) || rawF > float64(totalLen) {
		return totalLen
	}
	return int64(math.Ceil(rawF))
}

// filtered is the interval-filtered pipeline of core.EstimateFilteredFrozen
// spelled out: frozen filter pilot, Eq. 1 on the conditional sigma inflated
// by the pilot's selectivity, proportional quotas, the fused (or, for
// contained blocks, unfiltered) gather per block, Horvitz–Thompson merge.
func (rp *replayer) filtered(ctx context.Context, q query.Query, cfg core.Config, s *block.Store, f core.Filter, key plancache.Key) (float64, int64, error) {
	ex := core.LocalExecutor{S: s}
	v, err := rp.get(ctx, key, "core.pilot", func() (any, int64, error) {
		fp, err := ex.FreezeFilterPilot(ctx, cfg, f)
		return fp, fp.Drawn - fp.PrunedDraws, err
	})
	if err != nil {
		return 0, 0, err
	}
	fp := v.(core.FilterPilot)
	if fp.Accepted == 0 {
		return 0, 0, core.ErrNoMatch
	}
	total := s.TotalLen()
	blocks := s.Blocks()

	var quotas []int64
	seeds := make([]uint64, len(blocks))
	rp.rec.in("core.plan", func() {
		var want int64
		if want, err = stats.RequiredSampleSize(fp.Sigma, cfg.Precision, cfg.Confidence); err != nil {
			return
		}
		want = int64(float64(want) * cfg.SampleFraction)
		raw := rawDraws(want, fp.Selectivity, total)
		if maxRaw := int64(cfg.MaxSampleRate * float64(total)); raw > maxRaw && maxRaw > 0 {
			raw = maxRaw
		}
		if raw < 1 {
			raw = 1
		}
		quotas = s.Quotas(raw)
		r := fp.RNG.RNG()
		for i, qt := range quotas {
			if qt > 0 {
				seeds[i] = r.Uint64()
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}

	type blockAcc struct {
		planned, drawn, accepted int64
		m                        stats.Moments
	}
	accs := make([]blockAcc, len(blocks))
	calc := rp.rec.in("core.calc", func() {
		for i, b := range blocks {
			acc := &accs[i]
			acc.planned = quotas[i]
			class := block.SummaryOverlap
			if fp.Classes != nil {
				class = fp.Classes[i]
			}
			if quotas[i] == 0 || class == block.SummaryDisjoint {
				continue // pruned: the quota is booked as rejected, the block untouched
			}
			sink := block.MomentsSink(&acc.m)
			id := rp.rec.in("block.filtered_sample", func() {
				r := stats.NewRNG(seeds[i])
				if class == block.SummaryContained {
					acc.accepted = quotas[i]
					err = block.SampleChunks(b, r, quotas[i], sink)
				} else {
					acc.accepted, err = block.SampleFilteredIntervalChunks(b, r, quotas[i], f.Lo, f.Hi, sink)
				}
			})
			if err != nil {
				return
			}
			acc.drawn = quotas[i]
			rp.rec.count(id, "draws", acc.drawn)
			rp.rec.count(id, "accepted", acc.accepted)
		}
	})
	if err != nil {
		return 0, 0, err
	}

	var planned, drawn, accepted int64
	var count, sum float64
	var pruned, contained int
	rp.rec.in("core.summarize", func() {
		for i := range accs {
			acc := &accs[i]
			planned += acc.planned
			drawn += acc.drawn
			accepted += acc.accepted
			if acc.planned == 0 {
				continue
			}
			if fp.Classes != nil {
				switch fp.Classes[i] {
				case block.SummaryDisjoint:
					pruned++
				case block.SummaryContained:
					contained++
				}
			}
			ci := float64(acc.accepted) / float64(acc.planned) * float64(blocks[i].Len())
			count += ci
			sum += acc.m.Mean() * ci
		}
	})
	rp.rec.count(calc, "samples", drawn)
	rp.rec.count(calc, "planned", planned)
	rp.rec.count(calc, "accepted", accepted)
	rp.rec.count(calc, "pruned_blocks", int64(pruned+contained))
	rp.rec.count(calc, "blocks", int64(len(blocks)))
	if accepted == 0 {
		return 0, 0, core.ErrNoMatch
	}

	rp.whole("core.calc_whole", func() error {
		whole, err := ex.EstimateFilteredFrozen(ctx, cfg, f, fp)
		if err == nil && (math.Float64bits(whole.Sum) != math.Float64bits(sum) || whole.Drawn != drawn) {
			err = fmt.Errorf("staged filtered sum %v (%d draws) differs from EstimateFilteredFrozen's %v (%d)", sum, drawn, whole.Sum, whole.Drawn)
		}
		return err
	})
	switch q.Agg {
	case query.SUM:
		return sum, drawn, nil
	case query.COUNT:
		return count, drawn, nil
	}
	return sum / count, drawn, nil
}

// sharded is the scatter/gather pipeline as far as it can be seen from
// outside: the ShardView's pilot and calculation calls, with the same
// calculation on the local copy of the blocks beside it so the difference
// is the cluster layer's own cost (encode, transit, merge).
func (rp *replayer) sharded(ctx context.Context, q query.Query, cfg core.Config, tg replayTarget, f *core.Filter, key plancache.Key) (float64, int64, error) {
	local := core.LocalExecutor{S: tg.store}
	if f != nil {
		v, err := rp.get(ctx, key, "cluster.pilot", func() (any, int64, error) {
			fp, err := tg.view.FreezeFilterPilot(ctx, cfg, *f)
			return fp, fp.Drawn - fp.PrunedDraws, err
		})
		if err != nil {
			return 0, 0, err
		}
		fp := v.(core.FilterPilot)
		var fr core.FilteredResult
		id := rp.rec.in("cluster.calc", func() { fr, err = tg.view.EstimateFilteredFrozen(ctx, cfg, *f, fp) })
		if err != nil {
			return 0, 0, err
		}
		rp.rec.count(id, "samples", fr.Drawn)
		rp.whole("core.pilot", func() error {
			_, err := local.FreezeFilterPilot(ctx, cfg, *f)
			return err
		})
		rp.whole("core.calc_whole", func() error {
			_, err := local.EstimateFilteredFrozen(ctx, cfg, *f, fp)
			return err
		})
		switch q.Agg {
		case query.SUM:
			return fr.Sum, fr.Drawn, nil
		case query.COUNT:
			return fr.Count, fr.Drawn, nil
		}
		return fr.Avg, fr.Drawn, nil
	}
	v, err := rp.get(ctx, key, "cluster.pilot", func() (any, int64, error) {
		fp, err := tg.view.FreezePilot(ctx, cfg)
		return fp, fp.Base.PilotSize, err
	})
	if err != nil {
		return 0, 0, err
	}
	fp := v.(core.FrozenPilot)
	var res core.Result
	id := rp.rec.in("cluster.calc", func() { res, err = tg.view.EstimateFrozen(ctx, cfg, fp) })
	if err != nil {
		return 0, 0, err
	}
	rp.rec.count(id, "samples", res.TotalSamples)
	rp.whole("core.pilot", func() error {
		_, err := local.FreezePilot(ctx, cfg)
		return err
	})
	rp.whole("core.calc_whole", func() error {
		_, err := local.EstimateFrozen(ctx, cfg, fp)
		return err
	})
	val := res.Estimate
	if q.Agg == query.SUM {
		val *= float64(tg.view.TotalLen())
	}
	return val, res.TotalSamples, nil
}
