// Sharded scatter/gather serving: a ShardTable connects workers per a
// ShardManifest and hands out one core.BlockSource per query, so the engine
// serves a sharded table through the same query path, plan cache and
// degradation policy as a local one. core's pipelines and online rounds —
// the very functions a local store runs — run over a shardSource, which
// answers each phase with one RPC per worker: workers run core's per-block
// functions and return O(1) state per block — power sums or exact moments —
// and the pipeline merges them in block order, so for a given seed the
// answers are bit-identical to the single-node run. Worker loss re-dispatches
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
// interface: Source is the whole table's per-query source, GroupSource one
// group's.
type ShardTable struct {
	c   *coordinator
	man *ShardManifest

	global *ShardView
	keys   []string // group keys in manifest order
	groups map[string]*ShardView
}

// ShardView is one queryable block set of a sharded table — the whole
// table or a single group — whose Source runs a query's phases over the
// coordinator's transport. The view's block order is fixed at
// construction; quota allocation, seed derivation and merge order all key
// off it, which is the determinism contract.
type ShardView struct {
	c    *coordinator
	ids  []int
	lens []int64
	tot  int64
}

// NewShardTable validates the manifest, dials every shard entry and
// returns the queryable table. Each worker's Info inventory is validated
// against its manifest entry — every assigned block must be served at the
// recorded length — and only the assigned blocks are registered, so the
// replica topology is exactly the manifest's. The transport reads nothing
// from cfg: every query brings its own configuration, whose seed keys its
// retry jitter and whose AllowPartial lets its calculation phase degrade.
// fault tunes the transport; dial overrides the client factory (nil selects
// TCP) — the hook the fault-injection harness uses.
func NewShardTable(man *ShardManifest, cfg core.Config, fault Config, dial DialFunc) (*ShardTable, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	c := newCoordinator(fault, dial)
	for _, e := range man.Shards {
		if err := c.connect(e); err != nil {
			c.Close()
			return nil, err
		}
	}
	return newShardTable(c, man), nil
}

// newShardTable builds the views over an already-connected coordinator.
func newShardTable(c *coordinator, man *ShardManifest) *ShardTable {
	ids, lens := man.BlockIDs()
	st := &ShardTable{
		c:      c,
		man:    man,
		global: newShardView(c, ids, lens),
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
		st.groups[g.Key] = newShardView(c, g.Blocks, glens)
	}
	sort.Strings(st.keys)
	return st
}

func newShardView(c *coordinator, ids []int, lens []int64) *ShardView {
	var tot int64
	for _, l := range lens {
		tot += l
	}
	return &ShardView{c: c, ids: ids, lens: lens, tot: tot}
}

// Manifest returns the manifest the table was opened with.
func (st *ShardTable) Manifest() *ShardManifest { return st.man }

// Health reports each connected worker's address and whether it is
// currently admitted to placement.
func (st *ShardTable) Health() map[string]bool {
	c := st.c
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(map[string]bool, len(c.workers))
	for _, w := range c.workers {
		m[w.addr] = w.healthy()
	}
	return m
}

// Close shuts down the coordinator and its worker connections.
func (st *ShardTable) Close() error { return st.c.Close() }

// Rows returns the table's row count (replicas counted once).
func (st *ShardTable) Rows() int64 { return st.global.tot }

// Source returns one query's source over the whole table.
func (st *ShardTable) Source(cfg core.Config) core.BlockSource { return st.global.Source(cfg) }

// View returns the whole-table view.
func (st *ShardTable) View() *ShardView { return st.global }

// GroupColumn returns the manifest's grouped column name ("" when
// ungrouped).
func (st *ShardTable) GroupColumn() string { return st.man.Column }

// GroupKeys returns the group keys, sorted; empty for ungrouped tables.
func (st *ShardTable) GroupKeys() []string { return append([]string(nil), st.keys...) }

// GroupSource returns one query's source over one group.
func (st *ShardTable) GroupSource(key string, cfg core.Config) (core.BlockSource, error) {
	v, ok := st.groups[key]
	if !ok {
		return nil, fmt.Errorf("cluster: no group %q in the shard manifest", key)
	}
	return v.Source(cfg), nil
}

// TotalLen returns the view's row count.
func (v *ShardView) TotalLen() int64 { return v.tot }

// Source returns one query's source over the view: every phase it serves
// draws on one retry budget, its jitter keyed on cfg.Seed. Only its
// calculation phase may degrade, under cfg.AllowPartial (PhaseRep.Lost): a
// lost pilot block would silently change the pooled statistics (no
// bit-identity claim could survive), and Horvitz–Thompson filtered answers
// scale by the full row count, so partial coverage would bias them.
func (v *ShardView) Source(cfg core.Config) core.BlockSource {
	return v.source(cfg.Seed, cfg.AllowPartial)
}

// source is Source from the query's seed and AllowPartial.
func (v *ShardView) source(seed uint64, partial bool) *shardSource {
	return &shardSource{v: v, q: v.c.newQuery(seed, partial)}
}

// FreezePilot is core.FreezePilot over a fresh source of the view.
func (v *ShardView) FreezePilot(ctx context.Context, cfg core.Config) (core.FrozenPilot, error) {
	return core.FreezePilot(ctx, v.Source(cfg), cfg)
}

// EstimateFrozen is core.EstimateFrozen over a fresh source of the view.
func (v *ShardView) EstimateFrozen(ctx context.Context, cfg core.Config, fp core.FrozenPilot) (core.Result, error) {
	return core.EstimateFrozen(ctx, v.Source(cfg), cfg, fp, nil)
}

// FreezeFilterPilot is core.FreezeFilterPilot over a fresh source of the
// view.
func (v *ShardView) FreezeFilterPilot(ctx context.Context, cfg core.Config, f core.Filter) (core.FilterPilot, error) {
	return core.FreezeFilterPilot(ctx, v.Source(cfg), cfg, f)
}

// EstimateFilteredFrozen is core.EstimateFilteredFrozen over a fresh source
// of the view.
func (v *ShardView) EstimateFilteredFrozen(ctx context.Context, cfg core.Config, f core.Filter, fp core.FilterPilot) (core.FilteredResult, error) {
	return core.EstimateFilteredFrozen(ctx, v.Source(cfg), cfg, f, fp, nil)
}

// shardSource implements core.BlockSource for one query over one view:
// every phase goes through the scatter ladder (one Worker.Batch per worker
// holding planned blocks, all in flight at once; deadline, retries, replica
// failover) under the query's shared retry budget.
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

// Phase implements core.BlockSource via Worker.Batch items, the phase's
// filter riding once per batch, each worker's items converted on the
// goroutine that received its batch, so the conversion overlaps the batches
// still in flight. A planned request's fresh sums travel back and its Reply
// merges its Prior and runs Algorithm 2 here, as it does in process — the
// modulation consumes only the sums and the boundary geometry, both of which
// travel exactly; a failed-over item is answered afresh, so its Prior merges
// once, and a planned reply drawn from a block of another length than the
// manifest records fails the phase: its draws are not the planned ones. Only
// a phase of planned requests degrades, under the query's AllowPartial; an
// item it lost comes back flagged Lost.
func (s *shardSource) Phase(ctx context.Context, reqs []core.PhaseReq, f *core.Filter) ([]core.PhaseRep, error) {
	ids := make([]int, len(reqs))
	planned := false
	for k, r := range reqs {
		ids[k] = s.v.ids[r.Block]
		planned = planned || r.Plan != nil
	}
	out := make([]core.PhaseRep, len(reqs))
	type calc struct { // a planned reply's sums and partial answer
		sums leverage.Accum
		res  core.BlockResult
	}
	var fresh []calc
	if planned {
		fresh = make([]calc, len(reqs))
	}
	lost, err := s.v.c.scatter(ctx, s.q, planned && s.q.partial, ids, func(items []int) (string, any, any, func() error) {
		ba := BatchArgs{Filter: f, Items: make([]PhaseArgs, len(items))}
		for j, k := range items {
			r := reqs[k]
			ba.Items[j] = PhaseArgs{BlockID: ids[k], Draws: r.Draws, S0: r.Start.S0, S1: r.Start.S1}
			if p := r.Plan; p != nil {
				ba.Items[j].Bounds, ba.Items[j].Shift = &p.Bounds, p.Shift
			}
		}
		reply := new(BatchReply)
		return "Worker.Batch", ba, reply, func() error {
			if len(reply.Items) != len(items) {
				return fmt.Errorf("cluster: batch of %d items answered with %d", len(items), len(reply.Items))
			}
			for j, k := range items {
				w := reply.Items[j]
				rep := core.PhaseRep{Len: w.Len}
				if p := reqs[k].Plan; p != nil {
					if want := s.v.lens[reqs[k].Block]; w.Len != want {
						return fmt.Errorf("cluster: block %d answered from %d rows, the manifest records %d",
							ids[k], w.Len, want)
					}
					fresh[k].sums = leverage.Accum{Bounds: p.Bounds, S: stats.PowerSums(w.S), L: stats.PowerSums(w.L),
						Seen: reqs[k].Draws, D: w.D, D2: w.D2}
					rep.Sums, rep.Result = &fresh[k].sums, &fresh[k].res
				} else {
					rep.M = stats.RebuildMoments(w.Count, w.Mean, w.M2, w.Min, w.Max)
					rep.End = stats.RNGState{S0: w.EndS0, S1: w.EndS1}
				}
				var err error
				if out[k], err = reqs[k].Reply(ids[k], rep); err != nil {
					return err
				}
			}
			return nil
		}
	})
	for k, l := range lost {
		out[k].Lost = l
	}
	return out, err
}
