package bench

import (
	"context"
	"fmt"

	"isla/internal/baseline"
	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/extreme"
	"isla/internal/leverage"
	"isla/internal/modulate"
	"isla/internal/stats"
	"isla/internal/workload"
)

// store builders shared by the real-world experiments.
func tpchStore(n, blocks int, seed uint64) (*block.Store, float64, error) {
	return workload.TPCHLineitem(n, blocks, seed)
}

func salaryStore(o Options) (*block.Store, float64, error) {
	n := o.N
	if n > 299285 {
		n = 299285 // the real extract's size
	}
	return workload.Salary(n, o.Blocks, o.Seed)
}

func tlcStore(o Options) (*block.Store, float64, error) {
	return workload.TLCTrips(o.N, o.Blocks, o.Seed)
}

// AblationFixedAlpha contrasts the iterative α with the fixed leverage
// degrees the paper criticizes in SLEV: a good fixed α is workload-specific
// while the iteration adapts.
func AblationFixedAlpha(o Options) (*Table, error) {
	o = o.Defaults()
	t := &Table{
		ID:      "ablation-alpha",
		Title:   "Ablation: iterated α vs fixed α (truth = 100, e = 0.1)",
		Columns: []string{"variant", "run1", "run2", "run3", "mean abs err"},
	}
	variants := []struct {
		name  string
		alpha *float64
	}{
		{"iterated (ISLA)", nil},
		{"fixed α=0.1", ptr(0.1)},
		{"fixed α=0.5", ptr(0.5)},
		{"fixed α=0.9", ptr(0.9)},
	}
	for _, v := range variants {
		row := []string{v.name}
		var errSum float64
		for run := 0; run < 3; run++ {
			est, err := islaOn(o.N, o.Blocks, o.Seed+uint64(run), func(c *core.Config) {
				c.FixedAlpha = v.alpha
			})
			if err != nil {
				return nil, err
			}
			row = append(row, f(est))
			errSum += abs(est - 100)
		}
		row = append(row, f(errSum/3))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "the iteration should dominate every fixed degree"
	return t, nil
}

// AblationQ contrasts the deviation-aware q policy with q pinned to 1.
// The meeting point of the two estimators does not depend on q — q shapes
// the leverage coefficient k and therefore the α-trajectory that reaches
// the answer — so the honest readout is the final α magnitude per block,
// not the answer itself. (This also explains why the paper can claim a
// fixed λ suffices once q is adaptive: q soaks up the allocation imbalance
// inside the α path.)
func AblationQ(o Options) (*Table, error) {
	o = o.Defaults()
	t := &Table{
		ID:      "ablation-q",
		Title:   "Ablation: deviation-aware q vs q=1 (truth = 100, starved pilot)",
		Columns: []string{"variant", "estimate", "mean |alpha|", "max |alpha|"},
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
		s, _, err := workload.Normal(100, 20, o.N, o.Blocks, o.Seed)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.QPolicy = v.pol
		cfg.PilotSize = 200 // starved pilot → deviated sketch0
		cfg.Seed = o.Seed + 5000
		res, blocks, err := estimateBlocks(s, cfg)
		if err != nil {
			return nil, err
		}
		var sumA, maxA float64
		var n int
		for _, br := range blocks {
			a := abs(br.Detail.Alpha)
			sumA += a
			if a > maxA {
				maxA = a
			}
			n++
		}
		t.Rows = append(t.Rows, []string{v.name, f(res.Estimate), f(sumA / float64(n)), f(maxA)})
	}
	t.Notes = "answers coincide (the meeting point is q-free); q reshapes the α path"
	return t, nil
}

// AblationLambda contrasts the deviation-calibrated step lengths (auto)
// with the literal fixed-λ dominance rules at several λ values.
func AblationLambda(o Options) (*Table, error) {
	o = o.Defaults()
	t := &Table{
		ID:      "ablation-lambda",
		Title:   "Ablation: calibrated step lengths vs fixed λ (truth = 100, e = 0.1)",
		Columns: []string{"variant", "run1", "run2", "run3", "mean abs err"},
	}
	type variant struct {
		name   string
		mode   modulate.Mode
		lambda float64
	}
	variants := []variant{
		{"calibrated (ISLA)", modulate.LambdaAuto, 0.8},
		{"fixed λ=0.2", modulate.LambdaFixed, 0.2},
		{"fixed λ=0.45", modulate.LambdaFixed, 0.45},
		{"fixed λ=0.8", modulate.LambdaFixed, 0.8},
	}
	for _, v := range variants {
		row := []string{v.name}
		var errSum float64
		for run := 0; run < 3; run++ {
			est, err := islaOn(o.N, o.Blocks, o.Seed+uint64(run), func(c *core.Config) {
				c.StepMode = v.mode
				c.Lambda = v.lambda
			})
			if err != nil {
				return nil, err
			}
			row = append(row, f(est))
			errSum += abs(est - 100)
		}
		row = append(row, f(errSum/3))
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "fixed λ amplifies sketch0 error by λ/(1−λ) in Cases 1/3; calibration removes it (DESIGN.md)"
	return t, nil
}

// AblationEta sweeps the convergence speed η: the answer is invariant (the
// meeting point does not depend on η) but the iteration count follows
// log_{1/η}(|D0|/thr).
func AblationEta(o Options) (*Table, error) {
	o = o.Defaults()
	t := &Table{
		ID:      "ablation-eta",
		Title:   "Ablation: convergence speed η (truth = 100, e = 0.1)",
		Columns: []string{"η", "estimate", "max iterations"},
	}
	for _, eta := range []float64{0.25, 0.5, 0.75, 0.9} {
		s, _, err := workload.Normal(100, 20, o.N, o.Blocks, o.Seed)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig()
		cfg.Eta = eta
		cfg.Seed = o.Seed + 5000
		res, blocks, err := estimateBlocks(s, cfg)
		if err != nil {
			return nil, err
		}
		maxIter := 0
		for _, br := range blocks {
			if br.Detail.Iterations > maxIter {
				maxIter = br.Detail.Iterations
			}
		}
		t.Rows = append(t.Rows, []string{f2(eta), f(res.Estimate), fmt.Sprintf("%d", maxIter)})
	}
	t.Notes = "estimates should match across η; iterations grow as η → 1"
	return t, nil
}

// Extreme exercises the §VII-D MAX/MIN extension on the non-i.i.d.
// workload.
func Extreme(o Options) (*Table, error) {
	o = o.Defaults()
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

func ptr(v float64) *float64 { return &v }

// SLEVComparison contrasts ISLA with the prior-art leverage-based sampling
// of Ma et al. (the paper's reference [2]): SLEV needs two full scans and a
// hand-picked fixed blend degree, while ISLA samples a fraction of the data
// and adapts its leverage degree per block.
func SLEVComparison(o Options) (*Table, error) {
	o = o.Defaults()
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
	}
	t.Rows = append(t.Rows, []string{
		"ISLA", f(res.Estimate), f(abs(res.Estimate - truth)),
		fmt.Sprintf("%d samples", res.TotalSamples),
	})
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		v, err := baselineSLEV(s, alpha, res.Pilot.SampleSize, o.Seed+9000)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("SLEV α=%.1f", alpha), f(v), f(abs(v - truth)),
			fmt.Sprintf("%d full rows ×2 scans", s.TotalLen()),
		})
	}
	t.Notes = "SLEV is unbiased (Horvitz–Thompson) but must touch every datum twice; ISLA reads only its samples"
	return t, nil
}

// baselineSLEV adapts the baseline.SLEV call for the comparison table.
func baselineSLEV(s *block.Store, alpha float64, m int64, seed uint64) (float64, error) {
	return baseline.SLEV(s, baseline.SLEVConfig{Alpha: alpha, SampleSize: m}, stats.NewRNG(seed))
}
