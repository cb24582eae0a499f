package repro

import (
	"context"
	"fmt"
	"math"
	"time"

	"isla/internal/baseline"
	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/stats"
	"isla/internal/workload"
)

// efficiency reproduces §VIII-F: run time of ISLA, MV, MVB, US and STS over
// the TPC-H-like LINEITEM column, each run `Runs` times. Shape to
// reproduce: US fastest, ISLA close behind, MV/MVB/STS slower.
func efficiency(o Options) (*Table, error) {
	s, _, err := workload.TPCHLineitem(o.N, o.Blocks, o.Seed)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	// The lineitem column has a huge σ; query a proportionally loose e so
	// the sampling rate stays comparable to the paper's setup.
	cfg.Precision = 150
	cfg.Seed = o.Seed + 5000

	// Shared pilot so every method draws the same sample size.
	pilot, err := sigmaProbe(s, cfg, o.Seed+7000)
	if err != nil {
		return nil, err
	}
	m := pilot.SampleSize
	bounds, err := cfg.Bounds(pilot.Sketch0, pilot.Sigma)
	if err != nil {
		return nil, err
	}

	methods := []struct {
		name string
		run  func(seed uint64) (float64, error)
	}{
		{"ISLA", func(seed uint64) (float64, error) {
			c := cfg
			c.Seed = seed
			res, err := core.Estimate(context.Background(), s, c)
			return res.Raw, err
		}},
		{"MV", func(seed uint64) (float64, error) {
			return baseline.MeasureBiasedOffline(s, m, stats.NewRNG(seed))
		}},
		{"MVB", func(seed uint64) (float64, error) {
			return baseline.MeasureBiasedBoundedOffline(s, m, bounds, stats.NewRNG(seed))
		}},
		{"US", func(seed uint64) (float64, error) {
			est, err := baseline.OnStore(baseline.Uniform, s, cfg, m, stats.NewRNG(seed))
			return est.Value, err
		}},
		{"STS", func(seed uint64) (float64, error) {
			est, err := baseline.OnStore(baseline.Stratified, s, cfg, m, stats.NewRNG(seed))
			return est.Value, err
		}},
	}

	t := &Table{
		ID:      "efficiency",
		Title:   fmt.Sprintf("Efficiency on TPC-H-like LINEITEM (%d rows, %d runs each; paper §VIII-F)", s.TotalLen(), o.Runs),
		Columns: []string{"method", "total time", "avg estimate"},
	}
	for _, meth := range methods {
		start := time.Now()
		var sum float64
		for run := 0; run < o.Runs; run++ {
			v, err := meth.run(o.Seed + uint64(run))
			if err != nil {
				return nil, fmt.Errorf("repro: %s run %d: %w", meth.name, run, err)
			}
			sum += v
		}
		t.Rows = append(t.Rows, []string{
			meth.name, ms(time.Since(start)), f(sum / float64(o.Runs)),
		})
	}
	t.Claims = []Claim{
		{"methods timed", "5: ISLA, MV, MVB, US, STS", float64(len(t.Rows)), 5, 5, "§VIII-F's method list"},
		{"wall time of 20 runs on 600M rows", "ISLA 31979ms, MV 61718ms, MVB 70584ms, US 25989ms, STS 84294ms — US fastest, ISLA next, the offline MV/MVB (which must scan everything to know Pr ∝ a) far behind",
			math.NaN(), 0, 0, "timing"},
	}
	return t, nil
}

// salary reproduces the first §VIII-G experiment: the census-salary-like
// column, ISLA at half the sample size of the baselines. Shape: ISLA and
// STS near the truth; US close; MVB above; MV far above.
func salary(o Options) (*Table, error) {
	// At most the real extract's 299 285 rows.
	s, _, err := workload.Salary(min(o.N, 299285), o.Blocks, o.Seed)
	if err != nil {
		return nil, err
	}
	return realDataTable(&Table{
		ID:    "salary",
		Title: "Census-salary-like data (paper §VIII-G; real accurate mean 1740.38)",
	}, s, o, paperEstimates{accurate: 1740.38, isla: 1731.48, mv: 2326.78, us: 1742.79})
}

// tlc reproduces the second §VIII-G experiment: the trip-distance-like
// column. Shape: ISLA closest; MV far above; MVB and US far below.
func tlc(o Options) (*Table, error) {
	s, _, err := workload.TLCTrips(o.N, o.Blocks, o.Seed)
	if err != nil {
		return nil, err
	}
	return realDataTable(&Table{
		ID:    "tlc",
		Title: "TLC-trip-like data ×1000 (paper §VIII-G; real accurate mean 4648.2)",
	}, s, o, paperEstimates{accurate: 4648.2, isla: 4515.73, mv: 7426.37, us: 2908.53})
}

// paperEstimates are the §VIII-G figures a real-data table's claims compare
// against.
type paperEstimates struct{ accurate, isla, mv, us float64 }

// realDataTable fills t with the five-method comparison of §VIII-G:
// baselines at 20 000 samples, ISLA at half that (the paper gives ISLA half
// the budget).
func realDataTable(t *Table, s *block.Store, o Options, paper paperEstimates) (*Table, error) {
	const m = 20000
	truth, err := s.ExactMean()
	if err != nil {
		return nil, err
	}
	// Pin ISLA's budget to m/2: invert Eq. 1 so the requested precision
	// implies m/2 samples at the pilot's σ estimate.
	cfg := core.DefaultConfig()
	pilot, err := sigmaProbe(s, cfg, o.Seed+7000)
	if err != nil {
		return nil, err
	}
	u, err := stats.ZValue(cfg.Confidence)
	if err != nil {
		return nil, err
	}
	cfg.Precision = u * pilot.Sigma / math.Sqrt(m/2)
	v, err := islaVsMV(s, cfg, o.Seed, &pilot, m)
	if err != nil {
		return nil, err
	}
	us, err := baseline.OnStore(baseline.Uniform, s, cfg, m, v.r)
	if err != nil {
		return nil, err
	}
	sts, err := baseline.OnStore(baseline.Stratified, s, cfg, m, v.r)
	if err != nil {
		return nil, err
	}
	t.Columns = []string{"method", "estimate", "abs error", "samples"}
	add := func(name string, est float64, samples int64) {
		t.Rows = append(t.Rows, []string{
			name, f(est), f(abs(est - truth)), fmt.Sprintf("%d", samples),
		})
	}
	add("accurate", truth, s.TotalLen())
	add("ISLA", v.isla.Raw, v.isla.TotalSamples)
	add("MV", v.mv, m)
	add("MVB", v.mvb, m)
	add("US", us.Value, us.Samples)
	add("STS", sts.Value, sts.Samples)
	islaErr := abs(v.isla.Raw - truth)
	pISLA, pMV, pUS := abs(paper.isla-paper.accurate), abs(paper.mv-paper.accurate), abs(paper.us-paper.accurate)
	t.Claims = []Claim{
		atMost("ISLA abs error", fmt.Sprintf("%s, below MV's %s", num(pISLA), num(pMV)), islaErr, abs(v.mv-truth), "MV's abs error"),
		atMost("ISLA abs error / US abs error", fmt.Sprintf("%s (ISLA %s, US %s at twice ISLA's samples)", num(pISLA/pUS), num(pISLA), num(pUS)),
			islaErr/abs(us.Value-truth), pISLA/pUS, "the paper's ratio"),
	}
	return t, nil
}
