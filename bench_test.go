package isla

// One sub-benchmark per table and figure of the paper's evaluation (Section
// VIII), each running an experiment of internal/repro, plus micro-benchmarks
// of the hot components (Algorithm 1 sampling, the Theorem-3 closed form,
// Algorithm 2 iteration, and the full estimators).
//
//	go test -bench=. -benchmem
//
// The experiments are scaled to benchmark time (N=100k); cmd/islarepro runs
// them at full size.

import (
	"context"
	"fmt"
	"testing"

	"isla/internal/baseline"
	"isla/internal/core"
	"isla/internal/leverage"
	"isla/internal/modulate"
	"isla/internal/repro"
	"isla/internal/stats"
	"isla/internal/workload"
)

// BenchmarkExperiments runs every experiment of the reproduction harness,
// one sub-benchmark per table and figure: BenchmarkExperiments/table3 and
// so on.
func BenchmarkExperiments(b *testing.B) {
	o := repro.Options{N: 100_000, Blocks: 10, Seed: 1, Runs: 2}
	for _, e := range repro.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

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
	bounds := leverage.Boundaries{Center: 101, Sigma: 20, P1: 0.5, P2: 2}
	opts := modulate.Options{Eta: 0.5, Lambda: 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iterationSink = modulate.Run(s, l, bounds, pol, opts)
	}
}

var iterationSink modulate.Result

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
	cfg.Workers = -1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := Estimate(context.Background(), s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUniformBaseline measures the US competitor at the same budget as
// BenchmarkEstimate for an apples-to-apples per-query cost comparison: one
// phase over the store's own source, its blocks on the default worker pool.
func BenchmarkUniformBaseline(b *testing.B) {
	s, _, err := workload.Normal(100, 20, 100_000, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.OnStore(baseline.Uniform, s, DefaultConfig(), 6146, stats.NewRNG(uint64(i+1))); err != nil {
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
