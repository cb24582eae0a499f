package core

import (
	"context"
	"math"
	"testing"

	"isla/internal/stats"
	"isla/internal/workload"
)

// TestCICoverage verifies the paper's probabilistic guarantee empirically:
// over 250 fixed seeds per case, the reported confidence interval (answer
// ± precision) must cover the data's true mean at the configured
// confidence level, judged by a one-sided binomial test — the empirical
// rate may not fall more than three binomial standard errors below the
// nominal level (z = 3 ⇒ a calibrated estimator fails with p < 0.002;
// true undercoverage beyond a few points is detected reliably).
//
// Table-driven across a well-behaved normal workload, a skewed lognormal
// one, and an outlier mixture (99% bulk + 1% mass at 10× the mean). The
// precision targets sit inside the method's operating envelope for each
// shape, mirroring the paper's experiments: the leverage scheme discards
// the TS/TL regions and reconstructs them through the sketch, so on
// heavily skewed data the guarantee holds for precision targets that
// dominate the reconstruction residue (the §VIII-G real-data experiments
// use exactly such scale-proportional targets).
func TestCICoverage(t *testing.T) {
	const (
		n      = 40000
		blocks = 5
		trials = 250
	)
	cases := []struct {
		name       string
		dist       stats.Dist
		precision  float64
		confidence float64
	}{
		{"normal-tight", stats.Normal{Mu: 100, Sigma: 20}, 0.5, 0.80},
		{"normal", stats.Normal{Mu: 100, Sigma: 20}, 1.0, 0.90},
		{"lognormal", stats.LogNormal{Mu: 3, Sigma: 0.5}, 6.0, 0.80},
		{"lognormal-wide", stats.LogNormal{Mu: 3, Sigma: 0.5}, 8.0, 0.90},
		{"outliers", stats.NewMixture(
			stats.Component{Weight: 0.99, Dist: stats.Normal{Mu: 100, Sigma: 20}},
			stats.Component{Weight: 0.01, Dist: stats.Normal{Mu: 1000, Sigma: 50}},
		), 25.0, 0.80},
		{"outliers-wide", stats.NewMixture(
			stats.Component{Weight: 0.99, Dist: stats.Normal{Mu: 100, Sigma: 20}},
			stats.Component{Weight: 0.01, Dist: stats.Normal{Mu: 1000, Sigma: 50}},
		), 30.0, 0.90},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _, err := workload.Generate(workload.Spec{
				Name: tc.name, Dist: tc.dist, N: n, Blocks: blocks, Seed: 77,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The estimator's target is the dataset's mean, not the
			// distribution's.
			truth, err := s.ExactMean()
			if err != nil {
				t.Fatal(err)
			}

			cfg := DefaultConfig()
			cfg.Precision = tc.precision
			cfg.Confidence = tc.confidence

			covered := 0
			for seed := uint64(1); seed <= trials; seed++ {
				cfg.Seed = seed
				res, err := Estimate(context.Background(), s, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.CI.HalfWidth != tc.precision || res.CI.Confidence != tc.confidence {
					t.Fatalf("seed %d: CI (±%v, %v), want the configured (±%v, %v)",
						seed, res.CI.HalfWidth, res.CI.Confidence, tc.precision, tc.confidence)
				}
				if res.CI.Contains(truth) {
					covered++
				}
			}

			rate := float64(covered) / trials
			se := math.Sqrt(tc.confidence * (1 - tc.confidence) / trials)
			floor := tc.confidence - 3*se
			if rate < floor {
				t.Fatalf("coverage %.3f (%d/%d) below the binomial floor %.3f for nominal %.2f",
					rate, covered, trials, floor, tc.confidence)
			}
			t.Logf("coverage %.3f (%d/%d), nominal %.2f, floor %.3f",
				rate, covered, trials, tc.confidence, floor)
		})
	}
}
