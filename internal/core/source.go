// Block sources: where the estimation pipelines' per-block work runs. The
// four frozen pipelines (FreezePilot, EstimateFrozen, FreezeFilterPilot,
// EstimateFilteredFrozen) derive every per-block request of a phase — probe
// sizes, quotas, seeds, start states — from the source's layout alone, hand
// the whole phase to the source in one call, and merge the replies in block
// order. A local store answers a phase on the exec pool (storeSource, below);
// the cluster package answers it with one RPC per worker. Both run the same
// per-block functions (PilotBlock, FilterPilotBlock, FilterCalcBlock,
// SampleSums, and CalcReq.Reply where the sums arrive), so for a given seed
// and layout every source returns the same answer bits.
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
// about its blocks without reading them, and the four phases.
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
	// Pilot serves the unfiltered pre-estimation's probes.
	Pilot(ctx context.Context, reqs []PilotReq) ([]PilotRep, error)
	// FilterPilot serves one stage of the filtered pre-estimation: each
	// block's accepted values in draw order (raw values, because the pilot's
	// moments accumulate across blocks in one shared fold).
	FilterPilot(ctx context.Context, reqs []FilterReq, f Filter) ([][]float64, error)
	// FilterCalc serves the filtered calculation phase.
	FilterCalc(ctx context.Context, reqs []FilterReq, f Filter) ([]FilterCalcRep, error)
	// Calc serves the calculation phase: Algorithm 1 where the block lives,
	// its fresh power sums resolved by CalcReq.Reply into the block's partial
	// answer. A source whose policy lets it lose a block mid-phase reports it
	// in CalcRep.Lost; otherwise losing one fails the phase with a
	// *BlocksLostError.
	Calc(ctx context.Context, reqs []CalcReq) ([]CalcRep, error)
}

// PilotReq asks for Size uniform draws from block Block with the master RNG
// resumed at Start, its state after the probes of every earlier block.
type PilotReq struct {
	Block int
	Size  int64
	Start stats.RNGState
}

// PilotRep is a probe's moments, the length of the block it was drawn from
// and the generator state after the draw.
type PilotRep struct {
	M   stats.Moments
	Len int64
	End stats.RNGState
}

// FilterReq asks for Draws raw draws on block Block from a fresh RNG(Seed)
// under the phase's filter. Class is the block's zone-map class, overlap or
// contained (disjoint blocks are booked without a request); only a source
// that reported the block's summary ever sees contained.
type FilterReq struct {
	Block int
	Seed  uint64
	Draws int64
	Class block.SummaryClass
}

// FilterCalcRep is a block's accepted count and the accepted values' moments.
type FilterCalcRep struct {
	Accepted int64
	M        stats.Moments
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

// PilotStreamError reports a probe that did not draw the stream the
// pipeline predicted — the block it ran on is not the length the layout
// records, or the generator ended elsewhere — instead of answering
// differently in silence.
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

// PilotBlock serves one pilot probe on b.
func PilotBlock(ctx context.Context, b block.Block, req PilotReq) (PilotRep, error) {
	return pilotBlock(ctx, b, req, new(stats.RNG))
}

// pilotBlock is PilotBlock drawing with r, resumed at the request's start.
func pilotBlock(ctx context.Context, b block.Block, req PilotReq, r *stats.RNG) (PilotRep, error) {
	*r = *req.Start.RNG()
	rep := PilotRep{Len: b.Len()}
	sink := block.MomentsSink(&rep.M)
	err := drawChunked(ctx, req.Size, func(k int64) error {
		return block.SampleChunks(b, r, k, sink)
	})
	rep.End = r.State()
	return rep, err
}

// sampleFiltered services req's raw draws on b under f, delivering the
// accepted values to sink. The RNG stream consumed is identical across
// classes: the contained fast path gathers the same raw index stream
// unfiltered (every value provably passes), every other block fuses the
// bounds test into the gather; a filter with excluded points then drops them
// from each accepted chunk, so what reaches sink is the same subsequence of
// the same raw draws whichever way the block is serviced.
func sampleFiltered(ctx context.Context, b block.Block, req FilterReq, f Filter, sink func(vs []float64) error) (int64, error) {
	r := stats.NewRNG(req.Seed)
	if req.Class == block.SummaryContained {
		return req.Draws, drawChunked(ctx, req.Draws, func(k int64) error {
			return block.SampleChunks(b, r, k, sink)
		})
	}
	var dropped *int64
	if len(f.Not) > 0 {
		sink, dropped = f.excluding(sink)
	}
	var accepted int64
	err := drawChunked(ctx, req.Draws, func(k int64) error {
		n, err := block.SampleFilteredIntervalChunks(b, r, k, f.Lo, f.Hi, sink)
		accepted += n
		return err
	})
	if dropped != nil {
		accepted -= *dropped
	}
	return accepted, err
}

// FilterPilotBlock serves one filter-pilot request on b: the accepted values
// in draw order.
func FilterPilotBlock(ctx context.Context, b block.Block, req FilterReq, f Filter) ([]float64, error) {
	var vals []float64
	_, err := sampleFiltered(ctx, b, req, f, func(vs []float64) error {
		vals = append(vals, vs...)
		return nil
	})
	return vals, err
}

// FilterCalcBlock serves one filtered calculation request on b.
func FilterCalcBlock(ctx context.Context, b block.Block, req FilterReq, f Filter) (FilterCalcRep, error) {
	var rep FilterCalcRep
	var err error
	rep.Accepted, err = sampleFiltered(ctx, b, req, f, block.MomentsSink(&rep.M))
	return rep, err
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
// Its Pilot and Calc run in fresh scratch, since their caller owns what they
// return (an online session keeps the sums); the pipelines run its phases in
// their pooled scratch instead (runPilot, runCalc).
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

func (l *storeSource) Pilot(ctx context.Context, reqs []PilotReq) ([]PilotRep, error) {
	return new(phaseScratch).runPilot(ctx, l, reqs)
}

func (l *storeSource) FilterPilot(ctx context.Context, reqs []FilterReq, f Filter) ([][]float64, error) {
	return exec.Run(ctx, l.workers, len(reqs), func(ctx context.Context, k int) ([]float64, error) {
		b := l.s.Block(reqs[k].Block)
		vals, err := FilterPilotBlock(ctx, b, reqs[k], f)
		return vals, blockErr(b, err)
	})
}

func (l *storeSource) FilterCalc(ctx context.Context, reqs []FilterReq, f Filter) ([]FilterCalcRep, error) {
	return exec.Run(ctx, l.workers, len(reqs), func(ctx context.Context, k int) (FilterCalcRep, error) {
		b := l.s.Block(reqs[k].Block)
		rep, err := FilterCalcBlock(ctx, b, reqs[k], f)
		return rep, blockErr(b, err)
	})
}

func (l *storeSource) Calc(ctx context.Context, reqs []CalcReq) ([]CalcRep, error) {
	return new(phaseScratch).runCalc(ctx, l, reqs)
}

// phaseScratch is one phase's per-block working set — plans, seeds,
// requests, replies and each block's draw state — recycled through phasePool
// so that a query allocates O(1) objects, not O(blocks). Nothing in it
// outlives the phase: what a caller keeps (Result.PerBlock, FrozenPilot's
// per-block pilots) is copied out into fresh memory, and a pipeline puts the
// scratch back only once its source's phase has returned, every worker with
// it. A remote source never writes into it: its wire replies are per call,
// since an RPC abandoned on timeout may still be filled in later.
type phaseScratch struct {
	plans    []Plan
	planPtrs []*Plan
	seeds    []uint64
	calc     []CalcReq
	calcReps []CalcRep
	pilot    []PilotReq
	ends     []stats.RNGState
	pilotRep []PilotRep
	blocks   []blockScratch
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

// runPilot serves a pilot phase on src. A store's own source runs it in sc:
// the replies, and request k's generator in sc.blocks[k]; any other source
// answers into memory of its own.
func (sc *phaseScratch) runPilot(ctx context.Context, src BlockSource, reqs []PilotReq) ([]PilotRep, error) {
	l, ok := src.(*storeSource)
	if !ok {
		return src.Pilot(ctx, reqs)
	}
	sc.pilotRep, sc.blocks = resize(sc.pilotRep, len(reqs)), resize(sc.blocks, len(reqs))
	k, err := exec.RunInto(ctx, l.workers, sc.pilotRep, func(ctx context.Context, k int) (PilotRep, error) {
		b := l.s.Block(reqs[k].Block)
		rep, err := pilotBlock(ctx, b, reqs[k], &sc.blocks[k].rng)
		return rep, blockErr(b, err)
	})
	return sc.pilotRep[:k], err
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
