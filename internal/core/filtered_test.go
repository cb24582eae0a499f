package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"isla/internal/block"
	"isla/internal/stats"
)

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
	pred := func(v float64) bool { return v > 100 }
	nExact, sumExact, err := ExactFiltered(s, pred)
	if err != nil {
		t.Fatal(err)
	}
	exactMean := sumExact / float64(nExact)

	cfg := DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 11
	res, err := EstimateFiltered(t.Context(), s, cfg, PredFilter(pred))
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
	for i, workers := range []int{0, 1, 4, -1} {
		cfg := DefaultConfig()
		cfg.Precision = 1
		cfg.Seed = 5
		cfg.Workers = workers
		res, err := EstimateFiltered(t.Context(), s, cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = res
			continue
		}
		if res.Avg != base.Avg || res.Count != base.Count || res.Sum != base.Sum ||
			res.Drawn != base.Drawn || res.Accepted != base.Accepted {
			t.Fatalf("workers=%d: %+v != %+v", workers, res, base)
		}
		if !reflect.DeepEqual(res.PerBlock, base.PerBlock) {
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

	cold, err := EstimateFiltered(t.Context(), s, cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := FreezeFilterPilot(t.Context(), localSource(s, cfg), cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := EstimateFilteredFrozen(t.Context(), localSource(s, cfg), cfg, f, fp)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Avg != cold.Avg || warm.Count != cold.Count || warm.Drawn != cold.Drawn {
		t.Fatalf("warm %+v != cold %+v", warm, cold)
	}
	// A different precision re-derives the plan from the same pilot.
	cfg2 := cfg
	cfg2.Precision = 2
	loose, err := EstimateFilteredFrozen(t.Context(), localSource(s, cfg2), cfg2, f, fp)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Drawn >= warm.Drawn {
		t.Fatalf("looser precision drew %d raw samples, tight drew %d", loose.Drawn, warm.Drawn)
	}
	// A pilot frozen for a different predicate must be refused.
	if _, err := EstimateFilteredFrozen(t.Context(), localSource(s, cfg), cfg, IntervalFilter(80, math.Inf(1)), fp); err == nil {
		t.Fatal("pilot frozen for [90,∞) accepted for [80,∞)")
	}
}

// TestFilteredIntervalMatchesClosure: the fused interval representation
// and the equivalent predicate closure must produce bit-identical results
// — they consume the same RNG stream and accept the same values, only the
// kernel differs.
func TestFilteredIntervalMatchesClosure(t *testing.T) {
	s := filteredTestStore(100_000, 6)
	lo, hi := 85.0, 115.0
	cfg := DefaultConfig()
	cfg.Precision = 0.8
	cfg.Seed = 13

	byInterval, err := EstimateFiltered(t.Context(), s, cfg, IntervalFilter(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	byClosure, err := EstimateFiltered(t.Context(), s, cfg, PredFilter(func(v float64) bool { return lo <= v && v <= hi }))
	if err != nil {
		t.Fatal(err)
	}
	if byInterval.Avg != byClosure.Avg || byInterval.Count != byClosure.Count ||
		byInterval.Sum != byClosure.Sum || byInterval.Accepted != byClosure.Accepted ||
		byInterval.Drawn != byClosure.Drawn {
		t.Fatalf("interval %+v != closure %+v", byInterval, byClosure)
	}
}

// TestFilteredPruningBitIdentical: on a range-partitioned store where the
// interval prunes some blocks and fast-paths others, enabling pruning must
// not move a single answer bit — only the physical draw counts drop.
func TestFilteredPruningBitIdentical(t *testing.T) {
	s := rangePartitionedStore(200_000, 16, 7)
	f := IntervalFilter(95, 105) // middle blocks contained, tail blocks disjoint
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 17

	pruned, err := EstimateFiltered(t.Context(), s, cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePruning = true
	full, err := EstimateFiltered(t.Context(), s, cfg, f)
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
	for _, br := range pruned.PerBlock {
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
	res, err := EstimateFiltered(t.Context(), s, cfg, IntervalFilter(5, 3))
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
	_, err := EstimateFiltered(t.Context(), s, cfg, PredFilter(func(v float64) bool { return v > 1e9 }))
	if err != ErrNoMatch {
		t.Fatalf("err = %v, want ErrNoMatch", err)
	}
}

func TestEstimateFilteredValidation(t *testing.T) {
	s := filteredTestStore(1000, 5)
	if _, err := EstimateFiltered(t.Context(), s, DefaultConfig(), Filter{}); err == nil {
		t.Error("nil predicate accepted")
	}
	bad := DefaultConfig()
	bad.Precision = -1
	if _, err := EstimateFiltered(t.Context(), s, bad, PredFilter(func(float64) bool { return true })); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := EstimateFiltered(t.Context(), block.NewStore(), DefaultConfig(), PredFilter(func(float64) bool { return true })); err != ErrEmptyStore {
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
