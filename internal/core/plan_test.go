package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"isla/internal/block"
	"isla/internal/stats"
)

var errInjected = errors.New("injected block failure")

// errBlock always fails to sample — failure injection for per-block paths.
// It overrides both the scalar and the batched entry points: embedding
// MemBlock would otherwise promote the working SampleInto fast path.
type errBlock struct{ *block.MemBlock }

func (e *errBlock) Sample(_ *stats.RNG, _ int64, _ func(v float64)) error {
	return errInjected
}

func (e *errBlock) SampleInto(_ *stats.RNG, _ []float64) error {
	return errInjected
}

func TestPlanIIDFields(t *testing.T) {
	s := genStore(stats.Normal{Mu: 100, Sigma: 20}, 200000, 10, 43)
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	plan, err := PlanIID(s, cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shift != 0 {
		t.Fatalf("positive data got shift %v", plan.Shift)
	}
	if plan.Bounds.P1 != cfg.P1 || plan.Bounds.P2 != cfg.P2 {
		t.Fatal("boundary params not propagated")
	}
	if plan.Opts.Sigma != plan.Pilot.Sigma {
		t.Fatal("modulation sigma not the pilot sigma")
	}
	if plan.Opts.SketchBound != plan.Pilot.RelaxedE {
		t.Fatal("sketch bound not the relaxed precision")
	}
}

func TestPlanSampleBlockQuota(t *testing.T) {
	s := genStore(stats.Normal{Mu: 100, Sigma: 20}, 100000, 4, 44)
	cfg := DefaultConfig()
	cfg.Precision = 1
	plan, err := PlanIID(s, cfg, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	b := s.Block(0)
	acc, m, err := plan.SampleBlock(b, stats.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(plan.Pilot.SampleRate * float64(b.Len()))
	if m != want {
		t.Fatalf("quota = %d, want %d", m, want)
	}
	if acc.Seen != m {
		t.Fatalf("accumulator saw %d, want %d", acc.Seen, m)
	}
	// S and L regions must both have mass on symmetric data.
	if acc.S.Count == 0 || acc.L.Count == 0 {
		t.Fatalf("degenerate regions: S=%d L=%d", acc.S.Count, acc.L.Count)
	}
}

func TestPlanResolveConsistentWithRunBlock(t *testing.T) {
	s := genStore(stats.Normal{Mu: 100, Sigma: 20}, 100000, 4, 45)
	cfg := DefaultConfig()
	cfg.Precision = 1
	cfg.Seed = 9
	plan, err := PlanIID(s, cfg, stats.NewRNG(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	b := s.Block(1)
	acc, m, err := plan.SampleBlock(b, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	answer, detail, err := plan.Resolve(acc)
	if err != nil {
		t.Fatal(err)
	}
	br, err := plan.RunBlock(context.Background(), b, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	if br.Answer != answer || br.Samples != m || br.Detail.Case != detail.Case {
		t.Fatalf("RunBlock %+v disagrees with Sample+Resolve (%v, %v)", br, answer, detail.Case)
	}
}

func TestPlanNonIIDPerBlockPlans(t *testing.T) {
	r := stats.NewRNG(46)
	mk := func(mu, sigma float64, n int) block.Block {
		d := stats.Normal{Mu: mu, Sigma: sigma}
		data := make([]float64, n)
		for i := range data {
			data[i] = d.Sample(r)
		}
		return block.NewMemBlock(0, data)
	}
	blocks := []block.Block{mk(100, 20, 50000), mk(50, 10, 50000)}
	s := block.NewStore(block.NewMemBlock(0, memData(blocks[0])), block.NewMemBlock(1, memData(blocks[1])))

	cfg := DefaultConfig()
	cfg.Precision = 0.5
	cfg.PerBlockBounds = true
	cfg.Seed = 2
	plans, overall := plansNonIID(t, s, cfg)
	if len(plans) != 2 {
		t.Fatalf("plans = %d", len(plans))
	}
	// Each block's boundaries must center on its own mean, not the pooled.
	if math.Abs(plans[0].Pilot.Sketch0-100) > 2 || math.Abs(plans[1].Pilot.Sketch0-50) > 2 {
		t.Fatalf("per-block sketch0 = %v, %v", plans[0].Pilot.Sketch0, plans[1].Pilot.Sketch0)
	}
	if math.Abs(overall.Sketch0-75) > 3 {
		t.Fatalf("pooled sketch0 = %v, want ~75", overall.Sketch0)
	}
}

// plansNonIID is the per-block pipeline's planning half: freeze the pilot
// from cfg.Seed, derive the per-block plans.
func plansNonIID(t *testing.T, s *block.Store, cfg Config) ([]*Plan, Pilot) {
	t.Helper()
	fp, err := FreezePilot(t.Context(), localSource(s, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := PlansFromPilots(fp.Pilots, fp.Base, cfg, s.TotalLen())
	if err != nil {
		t.Fatal(err)
	}
	return plans, fp.Base
}

func memData(b block.Block) []float64 {
	var out []float64
	b.Scan(func(v float64) error { out = append(out, v); return nil })
	return out
}

func TestPlanNonIIDEmptyBlock(t *testing.T) {
	s := block.NewStore(
		block.NewMemBlock(0, seqData(10000)),
		block.NewMemBlock(1, nil), // empty
	)
	cfg := DefaultConfig()
	cfg.Precision = 5
	cfg.PerBlockBounds = true
	cfg.Seed = 3
	plans, _ := plansNonIID(t, s, cfg)
	if plans[1] != nil {
		t.Fatal("empty block got a plan")
	}
	// And the estimator as a whole copes.
	res, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Estimate) {
		t.Fatal("NaN estimate with empty block")
	}
}

func seqData(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 100 + float64(i%41) - 20
	}
	return xs
}

func TestEstimateBlockErrorPropagates(t *testing.T) {
	good := block.NewMemBlock(0, seqData(10000))
	bad := &errBlock{block.NewMemBlock(1, seqData(10000))}
	s := block.NewStore(good, bad)
	cfg := DefaultConfig()
	cfg.Precision = 5
	_, err := Estimate(context.Background(), s, cfg)
	if err == nil {
		t.Fatal("block failure swallowed")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
}

func TestSummarizeBlocksWeighting(t *testing.T) {
	cfg := DefaultConfig()
	per := []BlockResult{
		{BlockID: 0, Len: 900, Samples: 90, Answer: 10},
		{BlockID: 1, Len: 100, Samples: 10, Answer: 110},
	}
	res := SummarizeBlocks(cfg, Pilot{}, 0, per, 1000)
	// Σ avg_j |B_j| / M = (10*900 + 110*100)/1000 = 20.
	if res.Estimate != 20 {
		t.Fatalf("estimate = %v, want 20", res.Estimate)
	}
	if res.Sum != 20000 {
		t.Fatalf("sum = %v", res.Sum)
	}
	if res.TotalSamples != 100 {
		t.Fatalf("samples = %d", res.TotalSamples)
	}
	if res.CI.HalfWidth != cfg.Precision || res.CI.Confidence != cfg.Confidence {
		t.Fatal("CI not carrying the config assurance")
	}
}
