package extreme

import (
	"math"
	"testing"

	"isla/internal/block"
	"isla/internal/stats"
	"isla/internal/workload"
)

func TestKindString(t *testing.T) {
	if Max.String() != "MAX" || Min.String() != "MIN" {
		t.Fatal("Kind.String broken")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SampleRate: 0},
		{SampleRate: 2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestExact(t *testing.T) {
	s := block.NewStore(
		block.NewMemBlock(0, []float64{5, -3, 9}),
		block.NewMemBlock(1, []float64{7, 2}),
	)
	mx, err := Exact(s, Max)
	if err != nil || mx != 9 {
		t.Fatalf("max = %v, err %v", mx, err)
	}
	mn, err := Exact(s, Min)
	if err != nil || mn != -3 {
		t.Fatalf("min = %v, err %v", mn, err)
	}
	if _, err := Exact(block.NewStore(), Max); err == nil {
		t.Fatal("empty store accepted")
	}
}

func TestEstimateFindsNearExtreme(t *testing.T) {
	// Non-iid blocks: the max almost surely lives in the high-mean,
	// high-variance block. A 20% sample should land very close to it.
	s, _, err := workload.PaperNonIID(50000, 3)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := Exact(s, Max)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Estimate(s, Max, Config{SampleRate: 0.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value > truth {
		t.Fatalf("estimated max %v exceeds true max %v", res.Value, truth)
	}
	// Within a modest band of the true extreme (N(150,60) tail).
	if truth-res.Value > 30 {
		t.Fatalf("estimated max %v too far below %v", res.Value, truth)
	}
	if res.Samples == 0 || len(res.PerBlock) != 5 {
		t.Fatalf("res = %+v", res)
	}
}

func TestEstimateMinMirrorsMax(t *testing.T) {
	s, _, err := workload.PaperNonIID(50000, 5)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := Exact(s, Min)
	res, err := Estimate(s, Min, Config{SampleRate: 0.2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value < truth {
		t.Fatalf("estimated min %v below true min %v", res.Value, truth)
	}
	if res.Value-truth > 15 {
		t.Fatalf("estimated min %v too far above %v", res.Value, truth)
	}
}

func TestEstimateLeveragesFavorPromisingBlocks(t *testing.T) {
	// Two blocks, same size: one high-mean/high-variance, one low/tight.
	// For MAX the first must receive clearly more samples.
	r := stats.NewRNG(7)
	mk := func(mu, sigma float64) []float64 {
		d := stats.Normal{Mu: mu, Sigma: sigma}
		data := make([]float64, 50000)
		for i := range data {
			data[i] = d.Sample(r)
		}
		return data
	}
	s := block.NewStore(
		block.NewMemBlock(0, mk(150, 60)),
		block.NewMemBlock(1, mk(50, 5)),
	)
	res, err := Estimate(s, Max, Config{SampleRate: 0.1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var hi, lo int64
	for _, br := range res.PerBlock {
		if br.BlockID == 0 {
			hi = br.Samples
		} else {
			lo = br.Samples
		}
	}
	if hi <= lo {
		t.Fatalf("promising block got %d samples vs %d", hi, lo)
	}
}

func TestEstimateEmptyStore(t *testing.T) {
	if _, err := Estimate(block.NewStore(), Max, Config{SampleRate: 0.1}); err == nil {
		t.Fatal("empty store accepted")
	}
}

func TestEstimateFullRateIsNearlyExact(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 50000, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := Exact(s, Max)
	res, err := Estimate(s, Max, Config{SampleRate: 1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Sampling with replacement at rate 1 misses ~1/e of data; the sampled
	// max still lands in the top tail.
	if truth-res.Value > 5 {
		t.Fatalf("full-rate max %v vs exact %v", res.Value, truth)
	}
	if math.IsInf(res.Value, 0) {
		t.Fatal("infinite result")
	}
}
