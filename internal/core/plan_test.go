package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"isla/internal/block"
	"isla/internal/modulate"
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

func TestPlansFromPilotsFields(t *testing.T) {
	s := genStore(stats.Normal{Mu: 100, Sigma: 20}, 200000, 10, 43)
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	plans, overall := freezePlans(t, s, cfg)
	for i, plan := range plans {
		if plan.Shift != 0 {
			t.Fatalf("block %d: positive data got shift %v", i, plan.Shift)
		}
		if plan.Bounds.P1 != cfg.P1 || plan.Bounds.P2 != cfg.P2 {
			t.Fatalf("block %d: boundary params not propagated", i)
		}
		if plan.Opts.Sigma != plan.Pilot.Sigma {
			t.Fatalf("block %d: modulation sigma not the block pilot's sigma", i)
		}
		if plan.Opts.SketchBound != overall.RelaxedE || plan.Pilot.SampleRate != overall.SampleRate {
			t.Fatalf("block %d: sketch bound or rate not the pooled pilot's", i)
		}
	}
}

func TestPlanSampleBlockQuota(t *testing.T) {
	s := genStore(stats.Normal{Mu: 100, Sigma: 20}, 100000, 4, 44)
	cfg := DefaultConfig()
	cfg.Precision = 1
	plans, _ := freezePlans(t, s, cfg)
	plan := plans[0]
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
	plans, _ := freezePlans(t, s, cfg)
	plan := plans[1]
	b := s.Block(1)
	acc, m, err := plan.SampleBlock(b, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	answer, detail, err := plan.Resolve(acc)
	if err != nil {
		t.Fatal(err)
	}
	req := PhaseReq{Block: 1, Draws: m, Start: stats.NewRNG(77).State(), Plan: plan}
	rep, err := phaseBlock(context.Background(), b, req, nil, new(blockScratch))
	if err == nil {
		rep, err = req.Reply(b.ID(), rep)
	}
	if err != nil {
		t.Fatal(err)
	}
	if br := rep.Result; br.Answer != answer || br.Samples != m || br.Detail.Case != detail.Case || *rep.Sums != *acc {
		t.Fatalf("phaseBlock %+v disagrees with Sample+Resolve (%v, %v)", br, answer, detail.Case)
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
	cfg.Seed = 2
	plans, overall := freezePlans(t, s, cfg)
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

// freezePlans is the pipeline's planning half: freeze the pilot from
// cfg.Seed, derive the per-block plans.
func freezePlans(t *testing.T, s *block.Store, cfg Config) ([]*Plan, Pilot) {
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
	cfg.Seed = 3
	plans, _ := freezePlans(t, s, cfg)
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
	// Hand-built results record no draws: the certificate abstains.
	if res.Fallback || res.Raw != res.Estimate || res.DrawMean != 0 || res.DrawSE != 0 {
		t.Fatalf("the certificate acted on results without draws: %+v", res)
	}
}

// The certificate weighs the answer against the stratified plain mean of
// the draws, M = Σ w_j·x̄_j, with standard error SE = √(Σ w_j²·s_j²/n_j): an
// answer within b = max(0, e − u·SE) of M is ISLA's own, bit for bit, and
// one beyond it is moved to M ± b on its side — u the normal quantile of the
// configured confidence — so u·SE ≥ e prints M. One block with fewer than
// two draws, or with draws of no spread, makes it abstain.
func TestSummarizeBlocksGuard(t *testing.T) {
	cfg := DefaultConfig() // 95 %: u = 1.95996…
	cfg.Precision = 2
	u, err := stats.ZValue(cfg.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	blocks := func(answer0 float64, draws1 int64, var1 float64) []BlockResult {
		return []BlockResult{
			{BlockID: 0, Len: 900, Samples: 90, Answer: answer0,
				Detail: modulate.Result{DrawMean: 10, DrawVar: 4.0 / 81, Draws: 90}},
			{BlockID: 1, Len: 100, Samples: draws1, Answer: 110,
				Detail: modulate.Result{DrawMean: 110, DrawVar: var1, Draws: draws1}},
			{BlockID: 2}, // an empty block's entry
		}
	}
	// M = 0.9·10 + 0.1·110 = 20; SE² = 0.81·4/81 + 0.01·25 = 0.29, so
	// u·SE ≈ 1.055 and the band at e = 2 is b ≈ 0.945.
	const mean = 20.0
	se := math.Sqrt(0.81*(4.0/81) + 0.01*25)
	b := cfg.Precision - u*se
	for _, tc := range []struct {
		name      string
		precision float64
		offset    float64 // the weighted answer minus M
		draws1    int64
		var1      float64
		want      float64 // the printed answer; NaN: Raw, bit for bit
	}{
		{"agrees", 2, 0, 10, 25, math.NaN()},
		{"inside the band", 2, 0.99 * b, 10, 25, math.NaN()},
		{"inside, below", 2, -0.99 * b, 10, 25, math.NaN()},
		{"just above the band", 2, 1.01 * b, 10, 25, mean + b},
		{"just below the band", 2, -1.01 * b, 10, 25, mean - b},
		{"far above", 2, 5 * u * se, 10, 25, mean + b},
		// e below u·SE: the band is empty and the answer is M itself.
		{"u·SE at least e", 0.5 * u * se, 0.1 * u * se, 10, 25, mean},
		{"u·SE at least e, below", u * se, -0.1 * u * se, 10, 25, mean},
		{"one draw abstains", 2, 5 * u * se, 1, 25, math.NaN()},
		// A reply without the centred sums reads as draws of no spread.
		{"no spread abstains", 2, 5 * u * se, 10, 0, math.NaN()},
	} {
		cfg := cfg
		cfg.Precision = tc.precision
		res := SummarizeBlocks(cfg, Pilot{}, 0, blocks(10+tc.offset/0.9, tc.draws1, tc.var1), 1000)
		if math.Abs(res.Raw-(mean+tc.offset)) > 1e-12 {
			t.Fatalf("%s: raw %v, want %v", tc.name, res.Raw, mean+tc.offset)
		}
		keep := math.IsNaN(tc.want)
		if res.Fallback == keep {
			t.Fatalf("%s: fallback %v (raw %v, mean %v ± %v)", tc.name, res.Fallback, res.Raw, res.DrawMean, res.DrawSE)
		}
		if keep && math.Float64bits(res.Estimate) != math.Float64bits(res.Raw) {
			t.Fatalf("%s: estimate %v, want the raw answer %v bit for bit", tc.name, res.Estimate, res.Raw)
		}
		if !keep && math.Abs(res.Estimate-tc.want) > 1e-12 {
			t.Fatalf("%s: estimate %v, want %v (raw %v)", tc.name, res.Estimate, tc.want, res.Raw)
		}
		if math.Float64bits(res.CI.Center) != math.Float64bits(res.Estimate) || res.CI.HalfWidth != tc.precision ||
			math.Float64bits(res.Sum) != math.Float64bits(res.Estimate*1000) {
			t.Fatalf("%s: CI %v ± %v, sum %v around the estimate %v", tc.name, res.CI.Center, res.CI.HalfWidth, res.Sum, res.Estimate)
		}
		abstains := tc.var1 == 0 || tc.draws1 < 2
		if abstains && (res.DrawMean != 0 || res.DrawSE != 0) {
			t.Fatalf("%s: abstaining, but draw mean %v ± %v", tc.name, res.DrawMean, res.DrawSE)
		}
		if !abstains && (math.Abs(res.DrawMean-mean) > 1e-12 || math.Abs(res.DrawSE-se) > 1e-12) {
			t.Fatalf("%s: draw mean %v ± %v, want %v ± %v", tc.name, res.DrawMean, res.DrawSE, mean, se)
		}
	}
}
