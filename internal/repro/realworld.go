package repro

import (
	"context"
	"fmt"
	"math"
	"time"

	"isla/internal/baseline"
	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/leverage"
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
	bounds, err := leverage.NewBoundaries(pilot.Sketch0, pilot.Sigma, cfg.P1, cfg.P2)
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
			return res.Estimate, err
		}},
		{"MV", func(seed uint64) (float64, error) {
			return baseline.MeasureBiasedOffline(s, m, stats.NewRNG(seed))
		}},
		{"MVB", func(seed uint64) (float64, error) {
			return baseline.MeasureBiasedBoundedOffline(s, m, bounds, stats.NewRNG(seed))
		}},
		{"US", func(seed uint64) (float64, error) {
			return baseline.Uniform(s, m, stats.NewRNG(seed))
		}},
		{"STS", func(seed uint64) (float64, error) {
			return baseline.Stratified(s, m, stats.NewRNG(seed))
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
	t.Notes = "paper (20 runs, 600M rows): ISLA 31979ms, MV 61718ms, MVB 70584ms, US 25989ms, STS 84294ms — US fastest, ISLA next, the offline MV/MVB (which must scan everything to know Pr ∝ a) far behind"
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
		Notes: "paper: ISLA 1731.48 (10k samples), MV 2326.78, MVB 1798.78, US 1742.79, STS 1740.37 (20k samples)",
	}, s, o)
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
		Notes: "paper: ISLA 4515.73, MV 7426.37, MVB 3298.09, US 2908.53, STS 4289.08",
	}, s, o)
}

// realDataTable fills t with the five-method comparison of §VIII-G:
// baselines at 20 000 samples, ISLA at half that (the paper gives ISLA half
// the budget).
func realDataTable(t *Table, s *block.Store, o Options) (*Table, error) {
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
	us, err := baseline.Uniform(s, m, v.r)
	if err != nil {
		return nil, err
	}
	sts, err := baseline.Stratified(s, m, v.r)
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
	add("ISLA", v.isla.Estimate, v.isla.TotalSamples)
	add("MV", v.mv, m)
	add("MVB", v.mvb, m)
	add("US", us, m)
	add("STS", sts, m)
	return t, nil
}
