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

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalize()
	if o.CalibrationFraction != 0.1 || o.MinSamples != 100 || o.Headroom != 0.8 {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{CalibrationFraction: 0.9}.normalize()
	if o.CalibrationFraction != 0.5 {
		t.Fatalf("fraction not clamped: %v", o.CalibrationFraction)
	}
	o = Options{CalibrationFraction: 0.001}.normalize()
	if o.CalibrationFraction != 0.02 {
		t.Fatalf("fraction not floored: %v", o.CalibrationFraction)
	}
}
