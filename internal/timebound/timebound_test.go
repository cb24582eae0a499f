package timebound

import (
	"context"
	"math"
	"testing"
	"time"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/workload"
)

func TestEstimateWithinBudget(t *testing.T) {
	s, truth, err := workload.Normal(100, 20, 300000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 3
	budget := 200 * time.Millisecond
	res, err := Estimate(context.Background(), s, cfg, budget, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The budget is advisory (calibration + derived size), but a 10x
	// overshoot would mean the calibration is broken.
	if res.Elapsed > 10*budget {
		t.Fatalf("elapsed %v far beyond budget %v", res.Elapsed, budget)
	}
	if res.AchievedPrecision <= 0 {
		t.Fatal("no achieved precision")
	}
	if res.SamplesPerSecond <= 0 {
		t.Fatal("no throughput estimate")
	}
	if math.Abs(res.Estimate-truth) > 5*res.AchievedPrecision {
		t.Fatalf("estimate %v vs truth %v beyond 5× achieved e=%v",
			res.Estimate, truth, res.AchievedPrecision)
	}
}

func TestLargerBudgetBuysTighterPrecision(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 500000, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 5
	small, err := Estimate(context.Background(), s, cfg, 50*time.Millisecond, Options{})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Estimate(context.Background(), s, cfg, 800*time.Millisecond, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// On fast hardware both budgets can afford a full scan (the sample size
	// caps at the store size), so the precisions saturate at the same
	// value, differing only by calibration noise — allow a hair of slack
	// while still catching a budget that buys meaningfully worse precision.
	if large.AchievedPrecision > small.AchievedPrecision*1.01 {
		t.Fatalf("larger budget bought worse precision: %v vs %v",
			large.AchievedPrecision, small.AchievedPrecision)
	}
	if large.TotalSamples < small.TotalSamples {
		t.Fatalf("larger budget drew fewer samples: %d vs %d",
			large.TotalSamples, small.TotalSamples)
	}
}

func TestEstimateValidation(t *testing.T) {
	s, _, _ := workload.Normal(100, 20, 1000, 2, 1)
	cfg := core.DefaultConfig()
	if _, err := Estimate(context.Background(), s, cfg, 0, Options{}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := Estimate(context.Background(), block.NewStore(), cfg, time.Second, Options{}); err == nil {
		t.Error("empty store accepted")
	}
}

// TestOptionsNormalization pins the calibration policy the constants fix: a
// tenth of the budget calibrates, the cutoff fires at 10× the budget, and the
// affordable size is 80 % of what the throughput buys in the remaining
// budget, never under 100 draws.
func TestOptionsNormalization(t *testing.T) {
	if calibrationFraction != 0.1 || cutoffFactor != 10 {
		t.Fatalf("calibration fraction %v, cutoff factor %v; want 0.1 and 10", calibrationFraction, cutoffFactor)
	}
	for _, tc := range []struct {
		throughput float64
		remaining  time.Duration
		want       int64
	}{
		{1e6, time.Second, 800_000},
		{1e6, time.Millisecond, 800},
		{1e6, 100 * time.Microsecond, 100},
		{1e9, -time.Millisecond, 100}, // calibration overran the budget
	} {
		if got := affordable(tc.throughput, tc.remaining); got != tc.want {
			t.Errorf("affordable(%v/s, %v) = %d, want %d", tc.throughput, tc.remaining, got, tc.want)
		}
	}
}

// TestFrozenBranchGolden pins the one per-block branch under FixedSamples:
// a frozen pilot handed in by the caller and one frozen here for
// PerBlockBounds (with and without variance-aware rates) must keep the
// bits the two separate branches produced before they were folded. The
// given pilot is frozen at another seed, so its leg can only match if the
// run resumes that pilot instead of freezing its own.
func TestFrozenBranchGolden(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 200000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := core.DefaultConfig()
	cfg.Seed = 9
	other := cfg
	other.Seed = 10
	fp, err := core.LocalExecutor{S: s}.FreezePilot(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	perBlock := cfg
	perBlock.PerBlockBounds = true
	varAware := perBlock
	varAware.VarianceAwareRates = true
	const halfWidth = 0x3fd1da8596e5567b // the achieved precision as well
	for _, leg := range []struct {
		name     string
		cfg      core.Config
		opts     Options
		est, sum uint64
		samples  int64
	}{
		{"given pilot", cfg, Options{FixedSamples: 20000, Frozen: &fp},
			0x405911c74d0f6ac3, 0x417320605dfad324, 19152},
		{"per-block bounds", perBlock, Options{FixedSamples: 20000},
			0x4058f0947e950e88, 0x4173070c4ad318a6, 18672},
		{"variance-aware", varAware, Options{FixedSamples: 20000},
			0x4058f23aa35f7c50, 0x4173084e5cc4c988, 18670},
	} {
		res, err := Estimate(ctx, s, leg.cfg, time.Second, leg.opts)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if math.Float64bits(res.Estimate) != leg.est || math.Float64bits(res.Sum) != leg.sum ||
			math.Float64bits(res.CI.HalfWidth) != halfWidth || math.Float64bits(res.AchievedPrecision) != halfWidth ||
			res.TotalSamples != leg.samples || res.CoveredBlocks != 8 || res.Truncated {
			t.Errorf("%s: estimate %#016x sum %#016x half-width %#016x achieved %#016x samples %d covered %d truncated %v",
				leg.name, math.Float64bits(res.Estimate), math.Float64bits(res.Sum), math.Float64bits(res.CI.HalfWidth),
				math.Float64bits(res.AchievedPrecision), res.TotalSamples, res.CoveredBlocks, res.Truncated)
		}
	}
}
