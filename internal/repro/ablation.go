package repro

import (
	"context"
	"fmt"
	"slices"

	"isla/internal/baseline"
	"isla/internal/core"
	"isla/internal/extreme"
	"isla/internal/leverage"
	"isla/internal/modulate"
	"isla/internal/stats"
	"isla/internal/workload"
)

// variant is one row of an ablation: a name and the config change it makes.
type variant struct {
	name string
	set  func(*core.Config)
}

// errorRows adds one row per variant to t: its name, ISLA's estimates on
// three seeded datasets with the variant's change, and their mean absolute
// error against the truth, 100. It returns the mean absolute errors.
func errorRows(o Options, t *Table, variants []variant) ([]float64, error) {
	errs := make([]float64, len(variants))
	for i, v := range variants {
		row, ests, err := islaRow(o, v.name, 3, v.set)
		if err != nil {
			return nil, err
		}
		var errSum float64
		for _, est := range ests {
			errSum += abs(est - 100)
		}
		errs[i] = errSum / 3
		t.Rows = append(t.Rows, append(row, f(errs[i])))
	}
	return errs, nil
}

// ablationFixedAlpha contrasts the iterative α with the fixed leverage
// degrees the paper criticizes in SLEV: a good fixed α is workload-specific
// while the iteration adapts.
func ablationFixedAlpha(o Options) (*Table, error) {
	fixed := func(alpha float64) func(*core.Config) {
		return func(c *core.Config) { c.FixedAlpha = &alpha }
	}
	t := &Table{
		ID:      "ablation-alpha",
		Title:   "Ablation: iterated α vs fixed α (truth = 100, e = 0.1)",
		Columns: []string{"variant", "run1", "run2", "run3", "mean abs err"},
	}
	errs, err := errorRows(o, t, []variant{
		{"iterated (ISLA)", func(c *core.Config) { c.FixedAlpha = nil }},
		{"fixed α=0.1", fixed(0.1)},
		{"fixed α=0.5", fixed(0.5)},
		{"fixed α=0.9", fixed(0.9)},
	})
	if err != nil {
		return nil, err
	}
	t.Claims = []Claim{atMost("iterated α's mean abs error", "below every fixed degree's (a good fixed α is workload-specific)",
		errs[0], slices.Min(errs[1:]), "the best fixed α's")}
	return t, nil
}

// ablationQ contrasts the deviation-aware q policy with q pinned to 1.
// The meeting point of the two estimators does not depend on q — q shapes
// the leverage coefficient k and therefore the α-trajectory that reaches
// the answer — so the honest readout is the final α magnitude per block,
// not the answer itself. (This also explains why the paper can claim a
// fixed λ suffices once q is adaptive: q soaks up the allocation imbalance
// inside the α path.)
func ablationQ(o Options) (*Table, error) {
	t := &Table{
		ID:      "ablation-q",
		Title:   "Ablation: deviation-aware q vs q=1 (truth = 100, starved pilot)",
		Columns: []string{"variant", "estimate", "mean |alpha|", "max |alpha|"},
		Notes:   "answers coincide (the meeting point is q-free); q reshapes the α path",
	}
	pinned := leverage.QPolicy{
		MildLo: 0, MildHi: 1e18, // every dev counts as mild → q = 1
		ModerateLo: 0, ModerateHi: 1e18, QMild: 1, QSevere: 1,
	}
	variants := []struct {
		name string
		pol  leverage.QPolicy
	}{
		{"adaptive q (ISLA)", leverage.DefaultQPolicy()},
		{"pinned q=1", pinned},
	}
	for _, v := range variants {
		res, blocks, err := partials(o, func(c *core.Config) {
			c.QPolicy = v.pol
			c.PilotSize = 200 // starved pilot → deviated sketch0
		})
		if err != nil {
			return nil, err
		}
		var sumA, maxA float64
		for _, br := range blocks {
			a := abs(br.Detail.Alpha)
			sumA += a
			maxA = max(maxA, a)
		}
		t.Rows = append(t.Rows, []string{v.name, f(res.Raw), f(sumA / float64(len(blocks))), f(maxA)})
	}
	return t, nil
}

// ablationLambda contrasts the deviation-calibrated step lengths (auto)
// with the literal fixed-λ dominance rules at several λ values.
func ablationLambda(o Options) (*Table, error) {
	steps := func(mode modulate.Mode, lambda float64) func(*core.Config) {
		return func(c *core.Config) { c.StepMode, c.Lambda = mode, lambda }
	}
	t := &Table{
		ID:      "ablation-lambda",
		Title:   "Ablation: calibrated step lengths vs fixed λ (truth = 100, e = 0.1)",
		Columns: []string{"variant", "run1", "run2", "run3", "mean abs err"},
		Notes:   "fixed λ amplifies sketch0 error by λ/(1−λ) in Cases 1/3; calibration removes it",
	}
	_, err := errorRows(o, t, []variant{
		{"calibrated (ISLA)", steps(modulate.LambdaAuto, 0.8)},
		{"fixed λ=0.2", steps(modulate.LambdaFixed, 0.2)},
		{"fixed λ=0.45", steps(modulate.LambdaFixed, 0.45)},
		{"fixed λ=0.8", steps(modulate.LambdaFixed, 0.8)},
	})
	return t, err
}

// ablationEta sweeps the convergence speed η: the answer is invariant (the
// meeting point does not depend on η) but the iteration count follows
// log_{1/η}(|D0|/thr).
func ablationEta(o Options) (*Table, error) {
	t := &Table{
		ID:      "ablation-eta",
		Title:   "Ablation: convergence speed η (truth = 100, e = 0.1)",
		Columns: []string{"η", "estimate", "max iterations"},
	}
	var ests, iters []float64
	for _, eta := range []float64{0.25, 0.5, 0.75, 0.9} {
		res, blocks, err := partials(o, func(c *core.Config) { c.Eta = eta })
		if err != nil {
			return nil, err
		}
		maxIter := 0
		for _, br := range blocks {
			maxIter = max(maxIter, br.Detail.Iterations)
		}
		ests, iters = append(ests, res.Raw), append(iters, float64(maxIter))
		t.Rows = append(t.Rows, []string{f2(eta), f(res.Raw), fmt.Sprintf("%d", maxIter)})
	}
	t.Claims = []Claim{
		allIn("estimate, farthest from η = 0.25's", "the same at every η (the meeting point is η-free)", ests, ests[0]-0.05, ests[0]+0.05, "shape bound ±0.05"),
		atLeast("max iterations at η = 0.9", "more than at η = 0.25 (log_{1/η}(|D0|/thr) grows as η → 1)", iters[3], iters[0]+1, "η = 0.25's, plus one"),
	}
	return t, nil
}

// extremes exercises the §VII-D MAX/MIN extension on the non-i.i.d.
// workload.
func extremes(o Options) (*Table, error) {
	s, _, err := workload.PaperNonIID(o.N/5, o.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "extreme",
		Title:   "Extreme-value extension (paper §VII-D; non-i.i.d. blocks)",
		Columns: []string{"kind", "exact", "estimate (20% sample)", "gap"},
	}
	for _, kind := range []extreme.Kind{extreme.Max, extreme.Min} {
		exact, err := extreme.Exact(s, kind)
		if err != nil {
			return nil, err
		}
		res, err := extreme.Estimate(s, kind, extreme.Config{SampleRate: 0.2, Seed: o.Seed + 5000})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			kind.String(), f(exact), f(res.Value), f(abs(exact - res.Value)),
		})
	}
	return t, nil
}

// slevComparison contrasts ISLA with the prior-art leverage-based sampling
// of Ma et al. (the paper's reference [2]): SLEV needs two full scans and a
// hand-picked fixed blend degree, while ISLA samples a fraction of the data
// and adapts its leverage degree per block.
func slevComparison(o Options) (*Table, error) {
	s, truth, err := workload.Normal(100, 20, o.N, o.Blocks, o.Seed)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed + 5000
	res, err := core.Estimate(context.Background(), s, cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "slev",
		Title:   "ISLA vs SLEV (Ma et al., the paper's ref [2]; truth = 100)",
		Columns: []string{"method", "estimate", "abs err", "data touched"},
		Notes:   "SLEV is unbiased (Horvitz–Thompson) but must touch every datum twice; ISLA reads only its samples",
	}
	t.Rows = append(t.Rows, []string{
		"ISLA", f(res.Raw), f(abs(res.Raw - truth)),
		fmt.Sprintf("%d samples", res.TotalSamples),
	})
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		slev := baseline.SLEVConfig{Alpha: alpha, SampleSize: res.Pilot.SampleSize}
		v, err := baseline.SLEV(s, slev, stats.NewRNG(o.Seed+9000))
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("SLEV α=%.1f", alpha), f(v), f(abs(v - truth)),
			fmt.Sprintf("%d full rows ×2 scans", s.TotalLen()),
		})
	}
	return t, nil
}
