// Block sources: where the estimation pipelines' per-block work runs. The
// four frozen pipelines (FreezePilot, EstimateFrozen, FreezeFilterPilot,
// EstimateFilteredFrozen) derive every per-block request of a phase — draw
// counts, quotas, start states, plans — from the source's layout alone, hand
// the whole phase to the source in one call, and merge the replies in block
// order. There is one phase kind: each request draws from a generator state
// it carries, under the phase's filter when there is one. A request without
// a plan returns the moments of the draws the filter accepts (the unfiltered
// probes, both filter-pilot stages and the filtered calculation); one with a
// plan (the calculation round) classifies its draws into power sums that
// PhaseReq.Reply resolves. A local store answers a phase on the exec pool
// (storeSource, below); the cluster package answers it with one RPC per
// worker. Both run the same per-block function (PhaseBlock, then Reply where
// the reply arrives), so for a given seed and layout every source returns
// the same answer bits. The comparison estimators' one phase, DrawPhase,
// travels the same way.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"isla/internal/block"
	"isla/internal/exec"
	"isla/internal/leverage"
	"isla/internal/stats"
)

// BlockSource is the execution surface the pipelines run over: the block
// layout that fixes quota allocation and seed order, what the source knows
// about its blocks without reading them, and the phase.
//
// A phase receives every per-block request of one pipeline stage at once —
// only blocks with work to do, in block order — and returns the replies in
// request order; how the requests run (on a pool, grouped per worker,
// retried, failed over) is the source's business. A source must guarantee
// that each reply is what PhaseBlock and Reply return for that block's data,
// and that Layout, Summary and TotalLen do not change under a query.
type BlockSource interface {
	TotalLen() int64
	// Layout returns the block ids and lengths in the source's fixed order,
	// index-aligned and read-only. Requests name a block by its index here.
	Layout() (ids []int, lens []int64)
	// Summary returns block i's persisted summary (ISLB footers), which
	// feeds the summary pilot and zone-map pruning. A source without
	// summaries reports false and every block is sampled.
	Summary(i int) (block.Summary, bool)
	// Down flags, index-aligned with the layout, the blocks known to be
	// unusable before any phase runs (quarantined); nil when there are
	// none. A down block is never sent a request: it keeps its plan and its
	// slot in the seed stream, is not probed, and does not advance the
	// pilot generator.
	Down() []bool
	// Phase serves one phase under its filter f (nil: unfiltered): the
	// unfiltered probes, both stages of the filtered pre-estimation and the
	// filtered calculation as moments requests, the calculation round as
	// planned ones, which no pipeline sends under a filter. Each reply is
	// O(1) state. A source whose policy lets it lose a block mid-calculation
	// reports it in PhaseRep.Lost; otherwise losing one fails the phase with
	// a *BlocksLostError.
	Phase(ctx context.Context, reqs []PhaseReq, f *Filter) ([]PhaseRep, error)
}

// PhaseReq asks for Draws uniform draws from block Block with a generator
// resumed at Start: for an unfiltered probe the master RNG's state after the
// probes of every earlier block, otherwise a fresh RNG(seed)'s, the seed
// drawn from the master stream. Class is the block's zone-map class,
// overlap or contained (disjoint blocks are booked without a request); only
// a source that reported the block's summary ever sees contained, and an
// unfiltered phase ignores it.
//
// With a Plan the request runs Algorithm 1 on the block: the draws,
// translated by the plan's shift, fold into fresh S/L power sums. Prior,
// when non-nil, holds the sums of earlier rounds on the block under the same
// plan (an online session's); it is read, never written, and never travels —
// it merges into the fresh sums where they arrive.
type PhaseReq struct {
	Block int
	Draws int64
	Start stats.RNGState
	Class block.SummaryClass
	Plan  *Plan
	Prior *leverage.Accum
}

// PhaseRep is the length of the block a request drew from, beside M, the
// moments of the draws its filter accepted (all of them when unfiltered; its
// accepted count is M.Count()), and End, the generator state after the draw
// — or, under a plan, Sums, the block's power sums with Prior merged in, and
// Result, the partial answer Reply resolved from them (a planned reply
// leaves M and End zero: nothing reads them). Lost reports that the block
// went away mid-phase and the source's policy allows a partial answer, so
// the pipeline accounts the loss instead of failing.
type PhaseRep struct {
	M      stats.Moments
	Len    int64
	End    stats.RNGState
	Sums   *leverage.Accum
	Result *BlockResult
	Lost   bool
}

// request is the calculation request for block i under p: draws from start,
// carrying prior. It is the one place a planned request is built.
func (p *Plan) request(i int, draws int64, start stats.RNGState, prior *leverage.Accum) PhaseReq {
	return PhaseReq{Block: i, Draws: draws, Start: start, Plan: p, Prior: prior}
}

// Reply is a phase's second half, wherever the reply rep of block id
// arrives: under a plan, Prior merged into the fresh sums, then Algorithm 2
// on the result, written to *rep.Result (allocated when the reply brings no
// destination). BlockResult.Samples counts every draw the sums hold,
// earlier rounds' included. A moments reply passes through unchanged.
func (r PhaseReq) Reply(id int, rep PhaseRep) (PhaseRep, error) {
	if r.Plan == nil {
		return rep, nil
	}
	if r.Prior != nil {
		if err := rep.Sums.Merge(r.Prior); err != nil {
			return PhaseRep{}, err
		}
	}
	answer, detail, err := r.Plan.Resolve(rep.Sums)
	if err != nil {
		return PhaseRep{}, err
	}
	if rep.Result == nil {
		rep.Result = new(BlockResult)
	}
	*rep.Result = BlockResult{BlockID: id, Len: rep.Len, Samples: rep.Sums.Seen, Answer: answer, Detail: detail}
	return rep, nil
}

// PilotStreamError reports a moments reply that did not draw the stream the
// pipeline predicted — the block it ran on is not the length the layout
// records, or an unfiltered probe's generator ended elsewhere — instead of
// answering differently in silence.
type PilotStreamError struct {
	BlockID      int
	Len, WantLen int64
}

func (e *PilotStreamError) Error() string {
	return fmt.Sprintf("core: block %d pilot left the planned stream (block length %d, layout records %d)",
		e.BlockID, e.Len, e.WantLen)
}

// drawChunked splits m draws into runs of at most block.ChunkSize — the
// boundaries the block kernels choose themselves, so the generator stream
// and the chunks a sink sees do not change — and looks at ctx between runs:
// a cancelled query gets its workers back within a chunk, not after the
// block's whole quota. (Before the first run the exec pool has just looked.)
func drawChunked(ctx context.Context, m int64, draw func(k int64) error) error {
	deadline, timed := ctx.Deadline()
	for m > 0 {
		k := min(m, block.ChunkSize)
		if err := draw(k); err != nil {
			return err
		}
		if m -= k; m == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// A context learns of its deadline from a runtime timer, and with
		// a CPU-bound draw on every P none enters the scheduler to fire it
		// before the next forced preemption, some 10 ms on (a 5 ms deadline
		// on a 2-block table, 2 vCPUs, returned after 12–21 ms by ctx.Err()
		// alone and after 5.7 ms with this). The clock is not late.
		if timed && !time.Now().Before(deadline) {
			return context.DeadlineExceeded
		}
	}
	return nil
}

// blockScratch is one block's draw state within a phase: its generator and,
// under a plan, its fresh power sums.
type blockScratch struct {
	rng stats.RNG
	acc leverage.Accum
}

// PhaseBlock serves one phase request on b under f (nil: unfiltered), its
// fresh sums, under a plan, not yet resolved (Reply does that where the
// reply arrives). It allocates only what the request's kind draws into: a
// moments request a generator, a planned one the sums beside it.
func PhaseBlock(ctx context.Context, b block.Block, req PhaseReq, f *Filter) (PhaseRep, error) {
	if req.Plan == nil {
		return phaseBlock(ctx, b, req, f, new(stats.RNG), nil)
	}
	sc := new(blockScratch)
	return phaseBlock(ctx, b, req, f, &sc.rng, &sc.acc)
}

// phaseBlock is PhaseBlock drawing with r, resumed at the request's start,
// and under a plan into acc, which the reply's Sums point at. The generator
// stream consumed is the same whichever way the block is serviced: under a
// plan, without a filter, or on a block the filter provably contains, the
// raw draws are gathered unfiltered (on a contained block every value
// passes); otherwise each gathered chunk is selected on the bounds and a
// filter's excluded points are dropped from what it accepted, so the moments
// fold the same subsequence of the same raw draws either way.
func phaseBlock(ctx context.Context, b block.Block, req PhaseReq, f *Filter, r *stats.RNG, acc *leverage.Accum) (PhaseRep, error) {
	*r = *req.Start.RNG()
	rep := PhaseRep{Len: b.Len()}
	var err error
	switch {
	case req.Plan != nil:
		if f != nil {
			return rep, errors.New("core: a planned request under a filter")
		}
		*acc = leverage.Accum{Bounds: req.Plan.Bounds}
		rep.Sums = acc
		shift := req.Plan.Shift
		sink := func(vs []float64) error {
			acc.AddShifted(vs, shift)
			return nil
		}
		return rep, drawChunked(ctx, req.Draws, func(k int64) error {
			return block.SampleChunks(b, r, k, sink)
		})
	case f == nil || req.Class == block.SummaryContained:
		sink := block.MomentsSink(&rep.M)
		err = drawChunked(ctx, req.Draws, func(k int64) error {
			return block.SampleChunks(b, r, k, sink)
		})
	default:
		sink := func(vs []float64) error {
			rep.M.AddSlice(f.drop(vs))
			return nil
		}
		err = drawChunked(ctx, req.Draws, func(k int64) error {
			_, err := block.SampleFilteredIntervalChunks(b, r, k, f.Lo, f.Hi, sink)
			return err
		})
	}
	// Settled, the reply's moments are the value RebuildMoments makes of
	// their wire form, so a local and a remote reply compare equal.
	rep.M = stats.RebuildMoments(rep.M.Count(), rep.M.Mean(), rep.M.M2(), rep.M.Min(), rep.M.Max())
	rep.End = r.State()
	return rep, err
}

// storeSource is the in-process BlockSource: a *block.Store whose phases run
// the per-block function on the exec pool. A failed phase returns, beside
// its error, the in-order prefix of replies that completed (exec.Run's).
// Its phases run in fresh scratch, since their caller owns what they return;
// the pipelines run them in a scratch of their choosing instead
// (phaseScratch.run).
type storeSource struct {
	s       *block.Store
	workers int
}

// localSource binds a store to cfg's worker pool.
func localSource(s *block.Store, cfg Config) *storeSource {
	return &storeSource{s: s, workers: exec.Pool(cfg.Workers)}
}

func (l *storeSource) TotalLen() int64          { return l.s.TotalLen() }
func (l *storeSource) Layout() ([]int, []int64) { return l.s.Layout() }

func (l *storeSource) Summary(i int) (block.Summary, bool) {
	return block.BlockSummary(l.s.Block(i))
}

// Down reports the store's quarantine set.
func (l *storeSource) Down() []bool {
	quarantined := l.s.QuarantinedIDs() // ascending
	if quarantined == nil {
		return nil
	}
	ids, _ := l.s.Layout()
	down := make([]bool, len(ids))
	for i, id := range ids {
		_, down[i] = slices.BinarySearch(quarantined, id)
	}
	return down
}

// blockErr names the block a phase's per-block function failed on.
func blockErr(b block.Block, err error) error {
	if err != nil {
		err = fmt.Errorf("core: block %d: %w", b.ID(), err)
	}
	return err
}

func (l *storeSource) Phase(ctx context.Context, reqs []PhaseReq, f *Filter) ([]PhaseRep, error) {
	return new(phaseScratch).run(ctx, l, reqs, f)
}

// phaseScratch is one phase's per-block working set — plans, requests,
// replies, each block's draw state and partial answer — recycled
// through phasePool so that a query allocates O(1) objects, not O(blocks)
// (an online session rounds in a fresh one, whose sums it keeps).
// Nothing in it outlives the phase: what a caller keeps (a per-block
// destination it passed, FrozenPilot's per-block pilots) is written to memory
// of its own, and a pipeline puts the scratch back only once its source's
// phase has returned, every worker with it. A remote source never writes into
// it: its wire replies are per call, since an RPC abandoned on timeout may
// still be filled in later.
type phaseScratch struct {
	plans    []Plan
	planPtrs []*Plan
	reqs     []PhaseReq
	ends     []stats.RNGState
	reps     []PhaseRep
	blocks   []blockScratch
	results  []BlockResult
	perBlock []BlockResult
}

var phasePool = sync.Pool{New: func() any { return new(phaseScratch) }}

// resize returns s with length n, reusing its array when it is large enough;
// the contents are whatever the last phase left.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// run serves a phase on src under f. A store's own source runs it in sc: the
// replies, request k's generator and fresh sums in sc.blocks[k] and its
// partial answer in sc.results[k] — so a calculation reply's Sums and Result
// are sc's; any other source answers into memory of its own.
func (sc *phaseScratch) run(ctx context.Context, src BlockSource, reqs []PhaseReq, f *Filter) ([]PhaseRep, error) {
	l, ok := src.(*storeSource)
	if !ok {
		return src.Phase(ctx, reqs, f)
	}
	sc.reps, sc.blocks, sc.results = resize(sc.reps, len(reqs)), resize(sc.blocks, len(reqs)), resize(sc.results, len(reqs))
	k, err := exec.RunInto(ctx, l.workers, sc.reps, func(ctx context.Context, k int) (PhaseRep, error) {
		b := l.s.Block(reqs[k].Block)
		rep, err := phaseBlock(ctx, b, reqs[k], f, &sc.blocks[k].rng, &sc.blocks[k].acc)
		if err == nil {
			if rep.Sums != nil {
				rep.Result = &sc.results[k]
			}
			rep, err = reqs[k].Reply(b.ID(), rep)
		}
		return rep, blockErr(b, err)
	})
	return sc.reps[:k], err
}

// DrawPhase is the comparison estimators' (internal/baseline) one pass over
// a source: one phase of moments requests of m plain uniform draws in all.
// alloc spreads them over the layout's block lengths, each down block's at
// zero so that it holds none of the rows drawn from, drawing off r if it
// needs randomness; then momentsPhase sends the counts as the filtered
// phases do, one seed off r per block with a count, in block order.
// It returns the replies' moments index-aligned with the layout (zero for a
// block that drew nothing) and the Partial accounting of the down blocks,
// which refuse with a *QuarantinedError unless cfg.AllowPartial, as in
// EstimateFrozen.
func DrawPhase(ctx context.Context, src BlockSource, cfg Config, m int64, r *stats.RNG,
	alloc func(lens []int64, m int64, r *stats.RNG) []int64) ([]stats.Moments, *Partial, error) {
	if m <= 0 {
		return nil, nil, fmt.Errorf("core: sample size %d must be positive", m)
	}
	_, lens, _, down, err := openSource(src, cfg.AllowPartial)
	if err != nil {
		return nil, nil, err
	}
	up := slices.Clone(lens)
	for i, d := range down {
		if d {
			up[i] = 0
		}
	}
	sc := phasePool.Get().(*phaseScratch)
	defer phasePool.Put(sc)
	reqs, reps, err := sc.momentsPhase(ctx, src, nil, r, alloc(up, m, r), nil)
	if err != nil {
		return nil, nil, err
	}
	ms := make([]stats.Moments, len(lens))
	for k, rep := range reps {
		ms[reqs[k].Block] = rep.M
	}
	return ms, lossOf(src, down), nil
}
