package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"isla/internal/block"
	"isla/internal/query"
	"isla/internal/stats"
)

// where compiles a WHERE conjunction the way the engine does: the data form
// the estimator consumes, and the Predicate.Match closure it must agree with.
func where(t *testing.T, cond string) (Filter, func(float64) bool) {
	t.Helper()
	q, err := query.Parse("SELECT AVG(v) FROM t WHERE " + cond + " WITH PRECISION 1")
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := query.CompileInterval(q.Predicates)
	return Filter(iv), query.Filter(q.Predicates)
}

// closureSource is the test-only oracle of the filtered phases: a store
// source that ignores the compiled filter and services every request the way
// the deleted closure path did — gather the raw draws unfiltered, then reject
// through pred after the gather.
type closureSource struct {
	*storeSource
	pred func(float64) bool
}

func (c closureSource) Phase(ctx context.Context, reqs []PhaseReq, f *Filter) ([]PhaseRep, error) {
	if f == nil {
		return c.storeSource.Phase(ctx, reqs, nil)
	}
	out := make([]PhaseRep, len(reqs))
	for k, req := range reqs {
		b := c.s.Block(req.Block)
		out[k].Len = b.Len()
		err := block.SampleChunks(b, req.Start.RNG(), req.Draws, func(vs []float64) error {
			for _, v := range vs {
				if c.pred(v) {
					out[k].M.Add(v)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// estimateByClosure runs the filtered pipeline over the closure oracle.
func estimateByClosure(t *testing.T, s *block.Store, cfg Config, f Filter, pred func(float64) bool) FilteredResult {
	t.Helper()
	src := closureSource{localSource(s, cfg), pred}
	fp, err := FreezeFilterPilot(t.Context(), src, cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EstimateFilteredFrozen(t.Context(), src, cfg, f, fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// estimateFiltered is the cold filtered pipeline on a store: freeze the
// filter pilot through the store's executor and resume it.
func estimateFiltered(ctx context.Context, s *block.Store, cfg Config, f Filter) (FilteredResult, error) {
	res, _, err := estimateFilteredBlocks(ctx, s, cfg, f)
	return res, err
}

// estimateFilteredBlocks is estimateFiltered with a destination for the
// per-block partials.
func estimateFilteredBlocks(ctx context.Context, s *block.Store, cfg Config, f Filter) (FilteredResult, []BlockFilterResult, error) {
	ex := LocalExecutor{S: s}
	fp, err := ex.FreezeFilterPilot(ctx, cfg, f)
	if err != nil {
		return FilteredResult{}, nil, err
	}
	blocks := make([]BlockFilterResult, s.NumBlocks())
	res, err := EstimateFilteredFrozen(ctx, ex.Source(cfg), cfg, f, fp, blocks)
	return res, blocks, err
}

func filteredTestStore(n int, seed uint64) *block.Store {
	r := stats.NewRNG(seed)
	d := stats.Normal{Mu: 100, Sigma: 20}
	data := make([]float64, n)
	for i := range data {
		data[i] = d.Sample(r)
	}
	return block.Partition(data, 8)
}

// summedBlock equips an in-memory block with the summary a persisted ISLB
// v2 footer would carry, so zone-map pruning is testable without touching
// disk. Embedding the interface drops the batch/interval capabilities —
// the generic fallbacks must produce identical answers anyway.
type summedBlock struct {
	block.Block
	sum block.Summary
}

func (b summedBlock) Summary() (block.Summary, bool) { return b.sum, true }

// rangePartitionedStore sorts the values first, so each block covers a
// narrow value range and an interval predicate sees all three zone-map
// classes: blocks fully below, inside, and straddling the interval.
func rangePartitionedStore(n, nblocks int, seed uint64) *block.Store {
	r := stats.NewRNG(seed)
	d := stats.Normal{Mu: 100, Sigma: 20}
	data := make([]float64, n)
	for i := range data {
		data[i] = d.Sample(r)
	}
	sort.Float64s(data)
	blocks := make([]block.Block, nblocks)
	for i := range blocks {
		lo, hi := i*n/nblocks, (i+1)*n/nblocks
		part := data[lo:hi]
		blocks[i] = summedBlock{block.NewMemBlock(i, part), block.ComputeSummary(part)}
	}
	return block.NewStore(blocks...)
}

func TestEstimateFilteredMatchesExactWithinCI(t *testing.T) {
	s := filteredTestStore(400_000, 1)
	f, pred := where(t, "v > 100")
	nExact, sumExact, err := ExactFiltered(s, pred)
	if err != nil {
		t.Fatal(err)
	}
	exactMean := sumExact / float64(nExact)

	cfg := DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 11
	res, err := estimateFiltered(t.Context(), s, cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	// 3σ-style slack: the CI is calibrated at 95%, one run must land well
	// inside a tripled interval.
	if math.Abs(res.Avg-exactMean) > 3*res.CI.HalfWidth {
		t.Errorf("Avg = %v, exact %v, half-width %v", res.Avg, exactMean, res.CI.HalfWidth)
	}
	if math.Abs(res.Count-float64(nExact)) > 3*res.CountCI.HalfWidth {
		t.Errorf("Count = %v, exact %d, half-width %v", res.Count, nExact, res.CountCI.HalfWidth)
	}
	if math.Abs(res.Sum-sumExact) > 3*res.SumCI.HalfWidth {
		t.Errorf("Sum = %v, exact %v, half-width %v", res.Sum, sumExact, res.SumCI.HalfWidth)
	}
	if res.Selectivity < 0.4 || res.Selectivity > 0.6 {
		t.Errorf("selectivity = %v, want ≈ 0.5", res.Selectivity)
	}
	if res.Avg <= 100 {
		t.Errorf("conditional mean %v not above the threshold", res.Avg)
	}
}

// TestEstimateFilteredWorkerInvariance: the answer must be bit-identical
// for every worker count — seeds are derived before dispatch.
func TestEstimateFilteredWorkerInvariance(t *testing.T) {
	s := filteredTestStore(100_000, 2)
	f := IntervalFilter(math.Inf(-1), 110)
	var base FilteredResult
	var baseBlocks []BlockFilterResult
	for i, workers := range []int{0, 1, 4, -1} {
		cfg := DefaultConfig()
		cfg.Precision = 1
		cfg.Seed = 5
		cfg.Workers = workers
		res, blocks, err := estimateFilteredBlocks(t.Context(), s, cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base, baseBlocks = res, blocks
			continue
		}
		if res.Avg != base.Avg || res.Count != base.Count || res.Sum != base.Sum ||
			res.Drawn != base.Drawn || res.Accepted != base.Accepted {
			t.Fatalf("workers=%d: %+v != %+v", workers, res, base)
		}
		if !reflect.DeepEqual(blocks, baseBlocks) {
			t.Fatalf("workers=%d: per-block results differ", workers)
		}
	}
}

// TestEstimateFilteredFrozenMatchesCold: resuming a frozen filter pilot
// reproduces the cold run exactly, and serves other precision targets.
func TestEstimateFilteredFrozenMatchesCold(t *testing.T) {
	s := filteredTestStore(100_000, 3)
	f := IntervalFilter(90, math.Inf(1))
	cfg := DefaultConfig()
	cfg.Precision = 0.8
	cfg.Seed = 21

	cold, err := estimateFiltered(t.Context(), s, cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := FreezeFilterPilot(t.Context(), localSource(s, cfg), cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := EstimateFilteredFrozen(t.Context(), localSource(s, cfg), cfg, f, fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Avg != cold.Avg || warm.Count != cold.Count || warm.Drawn != cold.Drawn {
		t.Fatalf("warm %+v != cold %+v", warm, cold)
	}
	// A different precision re-derives the plan from the same pilot.
	cfg2 := cfg
	cfg2.Precision = 2
	loose, err := EstimateFilteredFrozen(t.Context(), localSource(s, cfg2), cfg2, f, fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Drawn >= warm.Drawn {
		t.Fatalf("looser precision drew %d raw samples, tight drew %d", loose.Drawn, warm.Drawn)
	}
	// A pilot frozen for a different predicate must be refused.
	if _, err := EstimateFilteredFrozen(t.Context(), localSource(s, cfg), cfg, IntervalFilter(80, math.Inf(1)), fp, nil); err == nil {
		t.Fatal("pilot frozen for [90,∞) accepted for [80,∞)")
	}
	if _, err := EstimateFilteredFrozen(t.Context(), localSource(s, cfg), cfg, Filter{Lo: 90, Hi: math.Inf(1), Not: []float64{100}}, fp, nil); err == nil {
		t.Fatal("pilot frozen for [90,∞) accepted for [90,∞) without 100")
	}
}

// TestFilteredIntervalMatchesClosure: the compiled data form — the fused
// interval kernel, plus the excluded-point removal of a <> conjunct — and the
// Predicate.Match closure of the same conjunction must produce bit-identical
// results: they consume the same RNG stream and accept the same values, only
// the kernel differs. The values are rounded so that <> actually rejects,
// block 0 carries a NaN row (it passes no conjunct, <> included), and the
// summaries make the zone maps classify every block.
func TestFilteredIntervalMatchesClosure(t *testing.T) {
	r := stats.NewRNG(6)
	data := make([]float64, 100_000)
	for i := range data {
		data[i] = math.Round(100 + 20*r.NormFloat64())
	}
	data[17] = math.NaN()
	s := block.Partition(data, 8)
	blocks := make([]block.Block, s.NumBlocks())
	for i, b := range s.Blocks() {
		blocks[i] = summedBlock{b, block.ComputeSummary(b.(*block.MemBlock).Data())}
	}
	summed := block.NewStore(blocks...)
	cfg := DefaultConfig()
	cfg.Precision = 0.8
	cfg.Seed = 13

	for _, cond := range []string{
		"v >= 85 AND v <= 115",
		"v <> 100",
		"v > 90 AND v <> 100 AND v <> 101",
		"v < 130 AND v <> 500",
	} {
		f, pred := where(t, cond)
		for _, v := range append([]float64{math.NaN(), 100, 101, 500, 84, 85, 115, 116}, data[:64]...) {
			if got := f.Lo <= v && v <= f.Hi && !slices.Contains(f.Not, v); got != pred(v) {
				t.Fatalf("%s: compiled form says %v for %v, Predicate.Match %v", cond, got, v, pred(v))
			}
		}
		want := estimateByClosure(t, s, cfg, f, pred)
		for name, store := range map[string]*block.Store{"plain": s, "summaries": summed} {
			got, err := estimateFiltered(t.Context(), store, cfg, f)
			if err != nil {
				t.Fatal(err)
			}
			if got.Avg != want.Avg || got.Count != want.Count || got.Sum != want.Sum ||
				got.Accepted != want.Accepted || got.Planned != want.Planned ||
				got.CI != want.CI || got.CountCI != want.CountCI || got.SumCI != want.SumCI {
				t.Fatalf("%s on %s: data form %+v != closure %+v", cond, name, got, want)
			}
		}
		if want.Accepted == 0 || want.Accepted == want.Planned {
			t.Fatalf("%s: degenerate acceptance %d of %d", cond, want.Accepted, want.Planned)
		}
	}
}

// TestClassifyBlocksExcludedPoints: a block the bounds contain is only
// "contained" — sampled unfiltered — when no excluded point can occur in it.
func TestClassifyBlocksExcludedPoints(t *testing.T) {
	s := rangePartitionedStore(20_000, 4, 7)
	sum1, _ := block.BlockSummary(s.Block(1))
	src := localSource(s, DefaultConfig())
	inside, outside := (sum1.Min+sum1.Max)/2, sum1.Max+1e-9
	for _, tc := range []struct {
		f    Filter
		want block.SummaryClass
	}{
		{Filter{Lo: sum1.Min, Hi: sum1.Max}, block.SummaryContained},
		{Filter{Lo: sum1.Min, Hi: sum1.Max + 1, Not: []float64{outside}}, block.SummaryContained},
		{Filter{Lo: sum1.Min, Hi: sum1.Max, Not: []float64{inside}}, block.SummaryOverlap},
		{Filter{Lo: sum1.Min, Hi: sum1.Max, Not: []float64{sum1.Max}}, block.SummaryOverlap},
	} {
		classes := classifyBlocks(src, tc.f)
		if classes[1] != tc.want || classes[3] != block.SummaryDisjoint {
			t.Fatalf("%+v: classes %v, want block 1 %v and block 3 disjoint", tc.f, classes, tc.want)
		}
	}
	if classifyBlocks(localSource(withoutSummaries(s), DefaultConfig()), Filter{Lo: 0, Hi: 1}) != nil {
		t.Fatal("a store without summaries still classified")
	}
}

// withoutSummaries is the summary-less in-memory copy of a
// rangePartitionedStore: the same blocks, which zone maps can never prune.
func withoutSummaries(s *block.Store) *block.Store {
	plain := make([]block.Block, s.NumBlocks())
	for i, b := range s.Blocks() {
		plain[i] = b.(summedBlock).Block
	}
	return block.NewStore(plain...)
}

// TestFilteredPruningBitIdentical: on a range-partitioned store where the
// interval prunes some blocks and fast-paths others, pruning must not move a
// single answer bit against the summary-less copy of the same blocks — only
// the physical draw counts drop.
func TestFilteredPruningBitIdentical(t *testing.T) {
	s := rangePartitionedStore(200_000, 16, 7)
	f := IntervalFilter(95, 105) // middle blocks contained, tail blocks disjoint
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 17

	pruned, prunedBlocks, err := estimateFilteredBlocks(t.Context(), s, cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	full, err := estimateFiltered(t.Context(), withoutSummaries(s), cfg, f)
	if err != nil {
		t.Fatal(err)
	}

	if pruned.Avg != full.Avg || pruned.Count != full.Count || pruned.Sum != full.Sum ||
		pruned.Selectivity != full.Selectivity ||
		pruned.CI != full.CI || pruned.CountCI != full.CountCI || pruned.SumCI != full.SumCI {
		t.Fatalf("pruning changed the answer:\n  pruned %+v\n  full   %+v", pruned, full)
	}
	if pruned.Accepted != full.Accepted || pruned.Planned != full.Planned {
		t.Fatalf("pruning changed the plan: accepted %d/%d, planned %d/%d",
			pruned.Accepted, full.Accepted, pruned.Planned, full.Planned)
	}
	if pruned.PrunedBlocks == 0 || pruned.ContainedBlocks == 0 {
		t.Fatalf("range-partitioned store pruned %d / contained %d blocks — zone maps not engaged",
			pruned.PrunedBlocks, pruned.ContainedBlocks)
	}
	if pruned.Drawn >= full.Drawn {
		t.Fatalf("pruned run drew %d ≥ unpruned %d", pruned.Drawn, full.Drawn)
	}
	if pruned.Pilot.PrunedDraws == 0 {
		t.Fatal("pilot booked no pruned draws on a range-partitioned store")
	}
	for _, br := range prunedBlocks {
		switch br.Class {
		case block.SummaryDisjoint:
			if br.Drawn != 0 || br.Accepted != 0 {
				t.Fatalf("disjoint block %d drew %d (accepted %d), want 0", br.BlockID, br.Drawn, br.Accepted)
			}
		case block.SummaryContained:
			if br.Planned > 0 && br.Accepted != br.Planned {
				t.Fatalf("contained block %d accepted %d of %d", br.BlockID, br.Accepted, br.Planned)
			}
		}
	}
}

// TestFilteredContradiction: a provably-empty interval must answer
// no-match without planning or drawing a single sample.
func TestFilteredContradiction(t *testing.T) {
	s := filteredTestStore(10_000, 8)
	cfg := DefaultConfig()
	cfg.Seed = 3
	res, err := estimateFiltered(t.Context(), s, cfg, IntervalFilter(5, 3))
	if err != ErrNoMatch {
		t.Fatalf("err = %v, want ErrNoMatch", err)
	}
	if res.Drawn != 0 || res.Planned != 0 || res.Pilot.Drawn != 0 {
		t.Fatalf("contradiction drew %d (planned %d, pilot %d), want 0",
			res.Drawn, res.Planned, res.Pilot.Drawn)
	}
}

func TestEstimateFilteredNoMatch(t *testing.T) {
	s := filteredTestStore(10_000, 4)
	cfg := DefaultConfig()
	cfg.Seed = 9
	f, _ := where(t, "v > 1e9 AND v <> 2e9")
	_, err := estimateFiltered(t.Context(), s, cfg, f)
	if err != ErrNoMatch {
		t.Fatalf("err = %v, want ErrNoMatch", err)
	}
}

func TestEstimateFilteredValidation(t *testing.T) {
	s := filteredTestStore(1000, 5)
	all := IntervalFilter(math.Inf(-1), math.Inf(1))
	bad := DefaultConfig()
	bad.Precision = -1
	if _, err := estimateFiltered(t.Context(), s, bad, all); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := estimateFiltered(t.Context(), block.NewStore(), DefaultConfig(), all); err != ErrEmptyStore {
		t.Error("empty store accepted")
	}
}

func TestExactFiltered(t *testing.T) {
	s := block.Partition([]float64{1, 2, 3, 4, 5}, 2)
	n, sum, err := ExactFiltered(s, func(v float64) bool { return v >= 3 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || sum != 12 {
		t.Fatalf("n=%d sum=%v", n, sum)
	}
}
