// Block sources: where the estimation pipelines' per-block work runs. The
// four frozen pipelines (FreezePilot, EstimateFrozen, FreezeFilterPilot,
// EstimateFilteredFrozen) derive every per-block request of a phase — draw
// counts, quotas, seeds, start states — from the source's layout alone, hand
// the whole phase to the source in one call, and merge the replies in block
// order. There are two phase kinds: a moments phase (the unfiltered probes,
// both filter-pilot stages and the filtered calculation — a filtered phase is
// a moments phase under a filter) and the calculation phase, which returns
// power sums. A local store answers a phase on the exec pool (storeSource,
// below); the cluster package answers it with one RPC per worker. Both run the
// same per-block functions (MomentsBlock, SampleSums, and CalcReq.Reply where
// the sums arrive), so for a given seed and layout every source returns the
// same answer bits.
package core

import (
	"context"
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
// about its blocks without reading them, and the two phase kinds.
//
// A phase receives every per-block request of one pipeline stage at once —
// only blocks with work to do, in block order — and returns the replies in
// request order; how the requests run (on a pool, grouped per worker,
// retried, failed over) is the source's business. A source must guarantee
// that each reply is what the matching per-block function of this package
// returns for that block's data, and that Layout, Summary and TotalLen do
// not change under a query.
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
	// Moments serves a moments phase: the unfiltered pre-estimation's
	// probes (f nil), and under the phase's filter f both stages of the
	// filtered pre-estimation and the filtered calculation. Each reply is
	// O(1) state: the moments of the draws the filter accepts.
	Moments(ctx context.Context, reqs []MomentsReq, f *Filter) ([]MomentsRep, error)
	// Calc serves the calculation phase: Algorithm 1 where the block lives,
	// its fresh power sums resolved by CalcReq.Reply into the block's partial
	// answer. A source whose policy lets it lose a block mid-phase reports it
	// in CalcRep.Lost; otherwise losing one fails the phase with a
	// *BlocksLostError.
	Calc(ctx context.Context, reqs []CalcReq) ([]CalcRep, error)
}

// MomentsReq asks for Draws uniform draws from block Block with a generator
// resumed at Start: for an unfiltered probe the master RNG's state after the
// probes of every earlier block, for a filtered request a fresh RNG(seed)'s,
// the seed drawn from the master stream. Class is the block's zone-map
// class, overlap or contained (disjoint blocks are booked without a
// request); only a source that reported the block's summary ever sees
// contained, and an unfiltered phase ignores it.
type MomentsReq struct {
	Block int
	Draws int64
	Start stats.RNGState
	Class block.SummaryClass
}

// MomentsRep is the moments of the draws a request's filter accepted (all of
// them when unfiltered) — its accepted count is M.Count() — the length of the
// block they were drawn from and the generator state after the draw.
type MomentsRep struct {
	M   stats.Moments
	Len int64
	End stats.RNGState
}

// CalcReq runs Algorithm 1 for Plan on block Block: Draws uniform draws from
// a fresh RNG(Seed), folded into fresh S/L power sums. Prior, when non-nil,
// holds the sums of earlier rounds on the block under the same plan (an
// online session's); it is read, never written, and never travels — it
// merges into the fresh sums where they arrive.
type CalcReq struct {
	Block int
	Plan  *Plan
	Seed  uint64
	Draws int64
	Prior *leverage.Accum
}

// CalcRep is a block's resolved partial answer and the sums it resolved
// from, or Lost: the block went away mid-phase and the source's policy
// allows a partial answer, so the pipeline accounts the loss instead of
// failing.
type CalcRep struct {
	Result BlockResult
	Sums   *leverage.Accum
	Lost   bool
}

// Reply is the calculation phase's second half, wherever the fresh sums of
// block (id, blen) arrive: Prior merged into them, then Algorithm 2 on the
// result, which becomes the reply's Sums. BlockResult.Samples counts every
// draw the sums hold, earlier rounds' included.
func (r CalcReq) Reply(id int, blen int64, fresh *leverage.Accum) (CalcRep, error) {
	if r.Prior != nil {
		if err := fresh.Merge(r.Prior); err != nil {
			return CalcRep{}, err
		}
	}
	answer, detail, err := r.Plan.Resolve(fresh)
	if err != nil {
		return CalcRep{}, err
	}
	return CalcRep{
		Result: BlockResult{BlockID: id, Len: blen, Samples: fresh.Seen, Answer: answer, Detail: detail},
		Sums:   fresh,
	}, nil
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

// checkLen returns a *PilotStreamError when a moments reply came from a block
// whose length is not the one the layout records.
func checkLen(ids []int, lens []int64, i int, rep MomentsRep) error {
	if rep.Len != lens[i] {
		return &PilotStreamError{BlockID: ids[i], Len: rep.Len, WantLen: lens[i]}
	}
	return nil
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

// MomentsBlock serves one moments request on b under f (nil: unfiltered).
func MomentsBlock(ctx context.Context, b block.Block, req MomentsReq, f *Filter) (MomentsRep, error) {
	return momentsBlock(ctx, b, req, f, new(stats.RNG))
}

// momentsBlock is MomentsBlock drawing with r, resumed at the request's
// start. The generator stream consumed is the same whichever way the block
// is serviced: without a filter, or on a block the filter provably contains,
// the raw draws are gathered unfiltered (on a contained block every value
// passes); otherwise the bounds test is fused into the gather and a filter's
// excluded points are dropped from each accepted chunk, so the moments fold
// the same subsequence of the same raw draws either way.
func momentsBlock(ctx context.Context, b block.Block, req MomentsReq, f *Filter, r *stats.RNG) (MomentsRep, error) {
	*r = *req.Start.RNG()
	rep := MomentsRep{Len: b.Len()}
	var err error
	if f == nil || req.Class == block.SummaryContained {
		sink := block.MomentsSink(&rep.M)
		err = drawChunked(ctx, req.Draws, func(k int64) error {
			return block.SampleChunks(b, r, k, sink)
		})
	} else {
		rep.M, err = filteredMoments(ctx, b, r, req.Draws, f)
	}
	rep.End = r.State()
	return rep, err
}

// filteredMoments draws m raw draws on b from r through the fused interval
// kernel and returns the moments of the values f accepts. (A helper of its
// own, returning by value: sharing momentsBlock's reply with this sink would
// move the reply to the heap on the unfiltered path too.)
func filteredMoments(ctx context.Context, b block.Block, r *stats.RNG, m int64, f *Filter) (stats.Moments, error) {
	var acc stats.Moments
	sink := func(vs []float64) error {
		acc.AddSlice(f.drop(vs))
		return nil
	}
	err := drawChunked(ctx, m, func(k int64) error {
		_, err := block.SampleFilteredIntervalChunks(b, r, k, f.Lo, f.Hi, sink)
		return err
	})
	return acc, err
}

// SampleSums runs Algorithm 1 on b: m uniform draws chunk-at-a-time,
// translated by shift and folded into the S/L region power sums of bounds, in
// draw order.
func SampleSums(ctx context.Context, b block.Block, r *stats.RNG, m int64, bounds leverage.Boundaries, shift float64) (*leverage.Accum, error) {
	acc := leverage.NewAccum(bounds)
	return acc, addDraws(ctx, b, r, m, acc, shift)
}

// addDraws is SampleSums folding into acc.
func addDraws(ctx context.Context, b block.Block, r *stats.RNG, m int64, acc *leverage.Accum, shift float64) error {
	sink := func(vs []float64) error {
		acc.AddShifted(vs, shift)
		return nil
	}
	return drawChunked(ctx, m, func(k int64) error {
		return block.SampleChunks(b, r, k, sink)
	})
}

// blockScratch is one block's draw state within a phase: its generator and,
// in the calculation phase, its fresh power sums.
type blockScratch struct {
	rng stats.RNG
	acc leverage.Accum
}

// calcBlock serves one calculation request on b: the request's fresh draws
// (SampleSums), folded into sc's sums and resolved by its Reply — whose Sums
// are then sc's.
func calcBlock(ctx context.Context, b block.Block, req CalcReq, sc *blockScratch) (CalcRep, error) {
	sc.rng.Seed(req.Seed)
	sc.acc = leverage.Accum{Bounds: req.Plan.Bounds}
	if err := addDraws(ctx, b, &sc.rng, req.Draws, &sc.acc, req.Plan.Shift); err != nil {
		return CalcRep{}, err
	}
	return req.Reply(b.ID(), b.Len(), &sc.acc)
}

// storeSource is the in-process BlockSource: a *block.Store whose phases run
// the per-block functions on the exec pool. A failed phase returns, beside
// its error, the in-order prefix of replies that completed (exec.Run's).
// Its phases run in fresh scratch, since their caller owns what they return;
// the pipelines run them in a scratch of their choosing instead (runMoments,
// runCalc).
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

func (l *storeSource) Moments(ctx context.Context, reqs []MomentsReq, f *Filter) ([]MomentsRep, error) {
	return new(phaseScratch).runMoments(ctx, l, reqs, f)
}

func (l *storeSource) Calc(ctx context.Context, reqs []CalcReq) ([]CalcRep, error) {
	return new(phaseScratch).runCalc(ctx, l, reqs)
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
	calc     []CalcReq
	calcReps []CalcRep
	moments  []MomentsReq
	ends     []stats.RNGState
	momRep   []MomentsRep
	blocks   []blockScratch
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

// runMoments serves a moments phase on src under f. A store's own source
// runs it in sc: the replies, and request k's generator in sc.blocks[k]; any
// other source answers into memory of its own.
func (sc *phaseScratch) runMoments(ctx context.Context, src BlockSource, reqs []MomentsReq, f *Filter) ([]MomentsRep, error) {
	l, ok := src.(*storeSource)
	if !ok {
		return src.Moments(ctx, reqs, f)
	}
	sc.momRep, sc.blocks = resize(sc.momRep, len(reqs)), resize(sc.blocks, len(reqs))
	k, err := exec.RunInto(ctx, l.workers, sc.momRep, func(ctx context.Context, k int) (MomentsRep, error) {
		b := l.s.Block(reqs[k].Block)
		rep, err := momentsBlock(ctx, b, reqs[k], f, &sc.blocks[k].rng)
		return rep, blockErr(b, err)
	})
	return sc.momRep[:k], err
}

// runCalc serves a calculation phase on src. A store's own source runs it in
// sc: the replies, and request k's generator and fresh sums in sc.blocks[k]
// — so a reply's Sums are sc's; any other source answers into memory of its
// own.
func (sc *phaseScratch) runCalc(ctx context.Context, src BlockSource, reqs []CalcReq) ([]CalcRep, error) {
	l, ok := src.(*storeSource)
	if !ok {
		return src.Calc(ctx, reqs)
	}
	sc.calcReps, sc.blocks = resize(sc.calcReps, len(reqs)), resize(sc.blocks, len(reqs))
	k, err := exec.RunInto(ctx, l.workers, sc.calcReps, func(ctx context.Context, k int) (CalcRep, error) {
		b := l.s.Block(reqs[k].Block)
		rep, err := calcBlock(ctx, b, reqs[k], &sc.blocks[k])
		return rep, blockErr(b, err)
	})
	return sc.calcReps[:k], err
}
