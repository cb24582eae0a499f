package baseline

import (
	"math"
	"testing"

	"isla/internal/block"
	"isla/internal/leverage"
	"isla/internal/stats"
)

func TestMeasureBiasedOfflineMatchesSampledMV(t *testing.T) {
	// The offline variant pays two full scans but must land on the same
	// estimator value E[X²]/E[X] ≈ 104 for N(100, 20²).
	s := normalStore(100, 20, 300000, 10, 21)
	got, err := MeasureBiasedOffline(s, 50000, stats.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-104) > 0.5 {
		t.Fatalf("offline MV = %v, want ~104", got)
	}
}

func TestMeasureBiasedOfflineErrors(t *testing.T) {
	s := normalStore(100, 20, 1000, 2, 1)
	if _, err := MeasureBiasedOffline(s, 0, stats.NewRNG(1)); err == nil {
		t.Error("zero sample size accepted")
	}
	neg := block.NewStore(block.NewMemBlock(0, []float64{-1, -2}))
	if _, err := MeasureBiasedOffline(neg, 10, stats.NewRNG(1)); err == nil {
		t.Error("non-positive total accepted")
	}
}

func TestMeasureBiasedBoundedOfflineMatchesSampledMVB(t *testing.T) {
	s := normalStore(100, 20, 300000, 10, 23)
	bounds, err := leverage.NewBoundaries(100, 20, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureBiasedBoundedOffline(s, 50000, bounds, stats.NewRNG(24))
	if err != nil {
		t.Fatal(err)
	}
	// Same target as the sampled MVB: ~100.5 on the default normal.
	if math.Abs(got-100.5) > 0.5 {
		t.Fatalf("offline MVB = %v, want ~100.5", got)
	}
}

func TestMeasureBiasedBoundedOfflineErrors(t *testing.T) {
	s := normalStore(100, 20, 1000, 2, 1)
	bounds, _ := leverage.NewBoundaries(100, 20, 0.5, 2)
	if _, err := MeasureBiasedBoundedOffline(s, 0, bounds, stats.NewRNG(1)); err == nil {
		t.Error("zero sample size accepted")
	}
	if _, err := MeasureBiasedBoundedOffline(block.NewStore(), 10, bounds, stats.NewRNG(1)); err == nil {
		t.Error("empty store accepted")
	}
}

// TestMeasureBiasedBoundedReruns: both MVB variants are functions of their
// generator's seed — a rerun adds the regions up in the same order and
// answers the same bits.
func TestMeasureBiasedBoundedReruns(t *testing.T) {
	s := normalStore(100, 20, 40_000, 4, 31)
	bounds, err := leverage.NewBoundaries(100, 20, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, mvb := range map[string]func(*block.Store, int64, leverage.Boundaries, *stats.RNG) (float64, error){
		"sampled": MeasureBiasedBounded, "offline": MeasureBiasedBoundedOffline,
	} {
		for seed := range uint64(5) {
			var first float64
			for run := range 20 {
				got, err := mvb(s, 4_000, bounds, stats.NewRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				if run == 0 {
					first = got
				} else if math.Float64bits(got) != math.Float64bits(first) {
					t.Fatalf("%s, seed %d: rerun %d answered %v, the first %v", name, seed, run, got, first)
				}
			}
		}
	}
}
