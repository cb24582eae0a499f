// Sharded scatter/gather serving: a ShardTable connects workers per a
// ShardManifest and exposes the core.Executor surface, so the engine
// serves a sharded table through the same query path, plan cache and
// degradation policy as a local one. A ShardView runs core's pipelines —
// the very functions a local store runs — over a shardSource, which answers
// each phase with one RPC per worker: workers run core's per-block
// functions and return power sums, exact moments or accepted values, and
// the pipeline merges them in block order, so for a given seed the answers
// are bit-identical to the single-node run. Worker loss re-dispatches
// through the replica/failover ladder of the transport layer.
package cluster

import (
	"context"
	"fmt"
	"sort"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/leverage"
	"isla/internal/stats"
)

// ShardTable is a sharded table: a coordinator whose workers were admitted
// and validated against a shard manifest. The zero value is not usable;
// construct with NewShardTable. It implements the engine's Sharded
// interface: View is the whole-table executor, Group the per-group ones.
type ShardTable struct {
	c   *Coordinator
	man *ShardManifest

	global *ShardView
	keys   []string // group keys in manifest order
	groups map[string]*ShardView
}

// ShardView is one queryable block set of a sharded table — the whole
// table or a single group — implementing core.Executor over the
// coordinator's transport. The view's block order is fixed at
// construction; quota allocation, seed derivation and merge order all key
// off it, which is the determinism contract.
type ShardView struct {
	c    *Coordinator
	ids  []int
	lens []int64
	tot  int64
	sum  uint64
}

// NewShardTable validates the manifest, dials every shard entry and
// returns the queryable table. Each worker's Info inventory is validated
// against its manifest entry — every assigned block must be served at the
// recorded length — and only the assigned blocks are registered, so the
// replica topology is exactly the manifest's. cfg is the estimator
// configuration (seed, precision defaults); fault tunes the transport and
// its AllowPartial degradation policy; dial overrides the client factory
// (nil selects TCP) — the hook the fault-injection harness uses.
func NewShardTable(man *ShardManifest, cfg core.Config, fault Config, dial DialFunc) (*ShardTable, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	c := NewCoordinator(cfg)
	c.Fault = fault
	c.DialClient = dial
	for _, e := range man.Shards {
		if err := c.connect(e); err != nil {
			c.Close()
			return nil, err
		}
	}
	return newShardTable(c, man), nil
}

// newShardTable builds the views over an already-connected coordinator.
func newShardTable(c *Coordinator, man *ShardManifest) *ShardTable {
	ids, lens := man.BlockIDs()
	sum := man.Checksum()
	st := &ShardTable{
		c:      c,
		man:    man,
		global: newShardView(c, ids, lens, sum),
		groups: make(map[string]*ShardView, len(man.Groups)),
	}
	byID := make(map[int]int64, len(ids))
	for i, id := range ids {
		byID[id] = lens[i]
	}
	for _, g := range man.Groups {
		glens := make([]int64, len(g.Blocks))
		for i, id := range g.Blocks {
			glens[i] = byID[id]
		}
		st.keys = append(st.keys, g.Key)
		st.groups[g.Key] = newShardView(c, g.Blocks, glens, sum)
	}
	sort.Strings(st.keys)
	return st
}

func newShardView(c *Coordinator, ids []int, lens []int64, sum uint64) *ShardView {
	var tot int64
	for _, l := range lens {
		tot += l
	}
	return &ShardView{c: c, ids: ids, lens: lens, tot: tot, sum: sum}
}

// Manifest returns the manifest the table was opened with.
func (st *ShardTable) Manifest() *ShardManifest { return st.man }

// Coordinator exposes the underlying transport (worker health).
func (st *ShardTable) Coordinator() *Coordinator { return st.c }

// Close shuts down the coordinator and its worker connections.
func (st *ShardTable) Close() error { return st.c.Close() }

// Rows returns the table's row count (replicas counted once).
func (st *ShardTable) Rows() int64 { return st.global.tot }

// Checksum returns the manifest fingerprint the engine keys plan-cache
// entries by.
func (st *ShardTable) Checksum() uint64 { return st.global.sum }

// Executor returns the whole-table execution surface.
func (st *ShardTable) Executor() core.Executor { return st.global }

// View returns the whole-table view.
func (st *ShardTable) View() *ShardView { return st.global }

// GroupColumn returns the manifest's grouped column name ("" when
// ungrouped).
func (st *ShardTable) GroupColumn() string { return st.man.Column }

// GroupKeys returns the group keys, sorted; empty for ungrouped tables.
func (st *ShardTable) GroupKeys() []string { return append([]string(nil), st.keys...) }

// GroupExecutor returns the execution surface of one group.
func (st *ShardTable) GroupExecutor(key string) (core.Executor, error) {
	v, ok := st.groups[key]
	if !ok {
		return nil, fmt.Errorf("cluster: no group %q in the shard manifest", key)
	}
	return v, nil
}

// --- ShardView: core.Executor over the transport ---

// NumBlocks implements core.Executor.
func (v *ShardView) NumBlocks() int { return len(v.ids) }

// TotalLen implements core.Executor.
func (v *ShardView) TotalLen() int64 { return v.tot }

// SummaryChecksum implements core.Executor with the manifest fingerprint.
func (v *ShardView) SummaryChecksum() uint64 { return v.sum }

// source binds one query's fault accounting to the view. The pilot and
// filtered phases force AllowPartial off regardless of the transport
// configuration: a lost pilot block would silently change the pooled
// statistics (no bit-identity claim could survive), and Horvitz–Thompson
// filtered answers scale by the full row count, so partial coverage would
// bias them. Only the unfiltered calculation phase degrades (CalcRep.Lost).
func (v *ShardView) source(partialOK bool) *shardSource {
	q := v.c.newQuery()
	if !partialOK {
		q.cfg.AllowPartial = false
	}
	return &shardSource{v: v, q: q}
}

// FreezePilot implements core.Executor.
func (v *ShardView) FreezePilot(ctx context.Context, cfg core.Config) (core.FrozenPilot, error) {
	return core.FreezePilot(ctx, v.source(false), cfg)
}

// EstimateFrozen implements core.Executor.
func (v *ShardView) EstimateFrozen(ctx context.Context, cfg core.Config, fp core.FrozenPilot) (core.Result, error) {
	return core.EstimateFrozen(ctx, v.source(true), cfg, fp)
}

// FreezeFilterPilot implements core.Executor.
func (v *ShardView) FreezeFilterPilot(ctx context.Context, cfg core.Config, f core.Filter) (core.FilterPilot, error) {
	return core.FreezeFilterPilot(ctx, v.source(false), cfg, f)
}

// EstimateFilteredFrozen implements core.Executor.
func (v *ShardView) EstimateFilteredFrozen(ctx context.Context, cfg core.Config, f core.Filter, fp core.FilterPilot) (core.FilteredResult, error) {
	return core.EstimateFilteredFrozen(ctx, v.source(false), cfg, f, fp)
}

// shardSource implements core.BlockSource for one query over one view:
// every phase goes through the scatter ladder (one Worker.Batch per worker
// holding planned blocks, all in flight at once; deadline, retries, replica
// failover) under the query's shared retry budget and loss accounting.
type shardSource struct {
	v *ShardView
	q *qstate
}

func (s *shardSource) TotalLen() int64          { return s.v.tot }
func (s *shardSource) Layout() ([]int, []int64) { return s.v.ids, s.v.lens }

// Summary implements core.BlockSource: the manifest carries no block
// summaries, so shards have no summary pilot and no zone-map pruning.
func (s *shardSource) Summary(int) (block.Summary, bool) { return block.Summary{}, false }

// Down implements core.BlockSource: a shard is only found lost by asking it.
func (s *shardSource) Down() []bool { return nil }

// batch scatters one phase: args[k] concerns block ids[k]; put and get
// select the phase's slice of BatchArgs and BatchReply, and conv turns item
// k's wire reply into the pipeline's form — on the goroutine that received
// that worker's batch, so it overlaps the batches still in flight. Results
// come back in args order; an item lost under AllowPartial stays zero.
func batch[A, R, T any](ctx context.Context, s *shardSource, ids []int, args []A,
	put func(*BatchArgs, []A), get func(*BatchReply) []R, conv func(k int, rep R) (T, error)) ([]T, error) {
	out := make([]T, len(args))
	err := s.v.c.scatter(ctx, s.q, ids, func(items []int) (string, any, any, func() error) {
		sub := make([]A, len(items))
		for j, k := range items {
			sub[j] = args[k]
		}
		var ba BatchArgs
		put(&ba, sub)
		reply := new(BatchReply)
		return "Worker.Batch", ba, reply, func() error {
			got := get(reply)
			if len(got) != len(items) {
				return fmt.Errorf("cluster: batch of %d items answered with %d", len(items), len(got))
			}
			for j, k := range items {
				rep, err := conv(k, got[j])
				if err != nil {
					return err
				}
				out[k] = rep
			}
			return nil
		}
	})
	return out, err
}

// Pilot implements core.BlockSource via Worker.Batch Pilot items.
func (s *shardSource) Pilot(ctx context.Context, reqs []core.PilotReq) ([]core.PilotRep, error) {
	ids := make([]int, len(reqs))
	args := make([]PilotStateArgs, len(reqs))
	for k, r := range reqs {
		ids[k] = s.v.ids[r.Block]
		args[k] = PilotStateArgs{BlockID: ids[k], SampleSize: r.Size, S0: r.Start.S0, S1: r.Start.S1}
	}
	return batch(ctx, s, ids, args,
		func(b *BatchArgs, a []PilotStateArgs) { b.Pilot = a },
		func(r *BatchReply) []PilotStateReply { return r.Pilot },
		func(_ int, rep PilotStateReply) (core.PilotRep, error) {
			return core.PilotRep{
				M:   stats.RebuildMoments(rep.Count, rep.Mean, rep.M2, rep.Min, rep.Max),
				Len: rep.Len,
				End: stats.RNGState{S0: rep.EndS0, S1: rep.EndS1},
			}, nil
		})
}

// filterArgs lowers a filtered phase's requests to the wire form: the
// filter is data and travels whole.
func (s *shardSource) filterArgs(reqs []core.FilterReq, f core.Filter) (ids []int, args []FilterArgs) {
	ids = make([]int, len(reqs))
	args = make([]FilterArgs, len(reqs))
	for k, r := range reqs {
		ids[k] = s.v.ids[r.Block]
		args[k] = FilterArgs{BlockID: ids[k], SampleSize: r.Draws, Seed: r.Seed, Lo: f.Lo, Hi: f.Hi, Not: f.Not}
	}
	return ids, args
}

// FilterPilot implements core.BlockSource via Worker.Batch FilterValues items.
func (s *shardSource) FilterPilot(ctx context.Context, reqs []core.FilterReq, f core.Filter) ([][]float64, error) {
	ids, args := s.filterArgs(reqs, f)
	return batch(ctx, s, ids, args,
		func(b *BatchArgs, a []FilterArgs) { b.FilterValues = a },
		func(r *BatchReply) []FilterValuesReply { return r.FilterValues },
		func(_ int, rep FilterValuesReply) ([]float64, error) { return rep.Values, nil })
}

// FilterCalc implements core.BlockSource via Worker.Batch FilterSample items.
func (s *shardSource) FilterCalc(ctx context.Context, reqs []core.FilterReq, f core.Filter) ([]core.FilterCalcRep, error) {
	ids, args := s.filterArgs(reqs, f)
	return batch(ctx, s, ids, args,
		func(b *BatchArgs, a []FilterArgs) { b.FilterSample = a },
		func(r *BatchReply) []FilterSampleReply { return r.FilterSample },
		func(_ int, rep FilterSampleReply) (core.FilterCalcRep, error) {
			return core.FilterCalcRep{
				Accepted: rep.Accepted,
				M:        stats.RebuildMoments(rep.Count, rep.Mean, rep.M2, rep.Min, rep.Max),
			}, nil
		})
}

// Calc implements core.BlockSource via Worker.Batch Sample items: Algorithm 1
// runs on the shard, Algorithm 2 resolves locally from the returned power
// sums — identical to the local Plan.RunBlock because the modulation
// consumes only the sums and the boundary geometry, both of which travel
// exactly.
func (s *shardSource) Calc(ctx context.Context, reqs []core.CalcReq) ([]core.CalcRep, error) {
	ids := make([]int, len(reqs))
	args := make([]SampleArgs, len(reqs))
	for k, r := range reqs {
		p := r.Plan
		ids[k] = s.v.ids[r.Block]
		args[k] = SampleArgs{
			BlockID:    ids[k],
			Center:     p.Pilot.Sketch0 + p.Shift,
			Sigma:      p.Pilot.Sigma,
			P1:         p.Cfg.P1,
			P2:         p.Cfg.P2,
			Shift:      p.Shift,
			SampleSize: p.SampleSize(s.v.lens[r.Block]),
			Seed:       r.Seed,
		}
	}
	out, err := batch(ctx, s, ids, args,
		func(b *BatchArgs, a []SampleArgs) { b.Sample = a },
		func(r *BatchReply) []SampleReply { return r.Sample },
		func(k int, rep SampleReply) (core.CalcRep, error) {
			p := reqs[k].Plan
			answer, detail, err := p.Resolve(&leverage.Accum{
				Bounds: p.Bounds,
				S:      stats.PowerSums(rep.S),
				L:      stats.PowerSums(rep.L),
			})
			return core.CalcRep{Result: core.BlockResult{
				BlockID: ids[k], Len: s.v.lens[reqs[k].Block], Samples: args[k].SampleSize, Answer: answer, Detail: detail,
			}}, err
		})
	for k := range out {
		out[k].Lost = s.q.isLost(ids[k])
	}
	return out, err
}
