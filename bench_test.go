package isla

// One benchmark per table and figure of the paper's evaluation (Section
// VIII), each delegating to the experiment harness in internal/bench, plus
// micro-benchmarks of the hot components (Algorithm 1 sampling, the
// Theorem-3 closed form, Algorithm 2 iteration, and the full estimators).
//
//	go test -bench=. -benchmem
//
// The workloads are scaled to benchmark time (N=100k); cmd/islarepro runs
// the full-size experiments and EXPERIMENTS.md records the outcomes.

import (
	"context"
	"fmt"
	"testing"

	"isla/internal/baseline"
	"isla/internal/bench"
	"isla/internal/core"
	"isla/internal/leverage"
	"isla/internal/modulate"
	"isla/internal/stats"
	"isla/internal/workload"
)

func benchOpts() bench.Options {
	return bench.Options{N: 100_000, Blocks: 10, Seed: 1, Runs: 2}
}

// runExperiment executes one harness experiment per benchmark iteration.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	fn := bench.Registry[id]
	if fn == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fn(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Evaluation-section reproductions (one per table/figure) ---

// BenchmarkDataSize regenerates the §VIII-A data-size sweep.
func BenchmarkDataSize(b *testing.B) { runExperiment(b, "datasize") }

// BenchmarkVaryPrecision regenerates Fig. 6(a).
func BenchmarkVaryPrecision(b *testing.B) { runExperiment(b, "fig6a") }

// BenchmarkVaryConfidence regenerates Fig. 6(b).
func BenchmarkVaryConfidence(b *testing.B) { runExperiment(b, "fig6b") }

// BenchmarkVaryBlocks regenerates Fig. 6(c).
func BenchmarkVaryBlocks(b *testing.B) { runExperiment(b, "fig6c") }

// BenchmarkVaryBoundary regenerates Fig. 6(d).
func BenchmarkVaryBoundary(b *testing.B) { runExperiment(b, "fig6d") }

// BenchmarkTable3 regenerates Table III (accuracy vs MV/MVB).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4 regenerates Table IV (per-block modulation).
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5 regenerates Table V (ISLA@r/3 vs US/STS@r).
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6 regenerates Table VI (exponential distributions).
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkTable7 regenerates Table VII (uniform distributions).
func BenchmarkTable7(b *testing.B) { runExperiment(b, "table7") }

// BenchmarkNonIID regenerates the §VIII-D non-i.i.d. experiment.
func BenchmarkNonIID(b *testing.B) { runExperiment(b, "noniid") }

// BenchmarkEfficiency regenerates the §VIII-F run-time comparison.
func BenchmarkEfficiency(b *testing.B) { runExperiment(b, "efficiency") }

// BenchmarkSalary regenerates the §VIII-G census-salary experiment.
func BenchmarkSalary(b *testing.B) { runExperiment(b, "salary") }

// BenchmarkTLC regenerates the §VIII-G TLC-trip experiment.
func BenchmarkTLC(b *testing.B) { runExperiment(b, "tlc") }

// BenchmarkAblationAlpha contrasts iterated vs fixed leverage degrees.
func BenchmarkAblationAlpha(b *testing.B) { runExperiment(b, "ablation-alpha") }

// BenchmarkAblationQ contrasts adaptive q with q pinned to 1.
func BenchmarkAblationQ(b *testing.B) { runExperiment(b, "ablation-q") }

// BenchmarkAblationLambda contrasts calibrated vs fixed step lengths.
func BenchmarkAblationLambda(b *testing.B) { runExperiment(b, "ablation-lambda") }

// BenchmarkAblationEta sweeps the convergence speed.
func BenchmarkAblationEta(b *testing.B) { runExperiment(b, "ablation-eta") }

// BenchmarkExtreme exercises the §VII-D MAX/MIN extension.
func BenchmarkExtreme(b *testing.B) { runExperiment(b, "extreme") }

// BenchmarkSLEV compares ISLA against Ma et al.'s leverage-biased sampling.
func BenchmarkSLEV(b *testing.B) { runExperiment(b, "slev") }

// --- Component micro-benchmarks ---

// BenchmarkSamplingPhase measures Algorithm 1 throughput: classify one
// sample into its region and update the power sums.
func BenchmarkSamplingPhase(b *testing.B) {
	bounds, err := leverage.NewBoundaries(100, 20, 0.5, 2)
	if err != nil {
		b.Fatal(err)
	}
	acc := leverage.NewAccum(bounds)
	r := stats.NewRNG(1)
	d := stats.Normal{Mu: 100, Sigma: 20}
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = d.Sample(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Add(vals[i&4095])
	}
}

// BenchmarkKC measures the Theorem-3 closed form.
func BenchmarkKC(b *testing.B) {
	var s, l stats.PowerSums
	r := stats.NewRNG(2)
	for i := 0; i < 1000; i++ {
		s.Add(60 + 30*r.Float64())
		l.Add(110 + 30*r.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leverage.KC(s, l, 1)
	}
}

// BenchmarkIterationPhase measures one full Algorithm 2 run.
func BenchmarkIterationPhase(b *testing.B) {
	var s, l stats.PowerSums
	r := stats.NewRNG(3)
	for i := 0; i < 1200; i++ {
		s.Add(60 + 30*r.Float64())
	}
	for i := 0; i < 1800; i++ {
		l.Add(110 + 30*r.Float64())
	}
	pol := leverage.DefaultQPolicy()
	opts := modulate.Options{Sigma: 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := modulate.Run(s, l, 101, pol, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimate measures the full sequential pipeline on 100k rows.
func BenchmarkEstimate(b *testing.B) {
	s, _, err := workload.Normal(100, 20, 100_000, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Precision = 0.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := core.Estimate(context.Background(), s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateParallel measures the distributed pipeline (§VII-E).
func BenchmarkEstimateParallel(b *testing.B) {
	s, _, err := workload.Normal(100, 20, 100_000, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := EstimateParallel(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUniformBaseline measures the US competitor at the same budget as
// BenchmarkEstimate for an apples-to-apples per-query cost comparison.
func BenchmarkUniformBaseline(b *testing.B) {
	s, _, err := workload.Normal(100, 20, 100_000, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Uniform(s, 6146, stats.NewRNG(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineRefine measures one refinement round of the §VII-A mode.
func BenchmarkOnlineRefine(b *testing.B) {
	s, _, err := workload.Normal(100, 20, 100_000, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 1
	sess, err := NewSession(s, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Refine(0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupAVG measures a SQL GROUP BY AVG over a grouped table of four
// groups, a fresh seed per iteration.
func BenchmarkGroupAVG(b *testing.B) {
	r := stats.NewRNG(1)
	rows := make([]GroupRow, 0, 200_000)
	names := []string{"a", "b", "c", "d"}
	for i := 0; i < 200_000; i++ {
		g := names[i%4]
		rows = append(rows, GroupRow{Group: g, Value: 100 + 20*r.NormFloat64()})
	}
	db := NewDB()
	if err := db.RegisterGroupedRows("t", "g", rows, 5); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf("SELECT AVG(v) FROM t GROUP BY g WITH PRECISION 1 SEED %d", i+1)
		if _, err := db.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}
