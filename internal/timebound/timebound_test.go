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
