package workload

import (
	"math"
	"testing"

	"isla/internal/stats"
)

func TestGenerateValidation(t *testing.T) {
	d := stats.Normal{Mu: 0, Sigma: 1}
	if _, _, err := Generate(Spec{Dist: d, N: 0, Blocks: 1}); err == nil {
		t.Error("zero size accepted")
	}
	if _, _, err := Generate(Spec{Dist: d, N: 10, Blocks: 0}); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, _, err := Generate(Spec{N: 10, Blocks: 1}); err == nil {
		t.Error("nil dist accepted")
	}
}

func TestNormalWorkload(t *testing.T) {
	s, truth, err := Normal(100, 20, 100000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if truth != 100 {
		t.Fatalf("declared truth = %v", truth)
	}
	if s.NumBlocks() != 10 || s.TotalLen() != 100000 {
		t.Fatalf("store shape %d/%d", s.NumBlocks(), s.TotalLen())
	}
	mean, _ := s.ExactMean()
	if math.Abs(mean-100) > 0.3 {
		t.Fatalf("empirical mean %v far from 100", mean)
	}
}

func TestExponentialWorkload(t *testing.T) {
	s, truth, err := Exponential(0.05, 100000, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if truth != 20 {
		t.Fatalf("truth = %v, want 20", truth)
	}
	mean, _ := s.ExactMean()
	if math.Abs(mean-20) > 0.5 {
		t.Fatalf("empirical mean %v far from 20", mean)
	}
}

func TestUniformWorkload(t *testing.T) {
	s, truth, err := UniformRange(1, 199, 100000, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if truth != 100 {
		t.Fatalf("truth = %v, want 100", truth)
	}
	mn, mx := math.Inf(1), math.Inf(-1)
	s.Scan(func(v float64) error {
		mn = math.Min(mn, v)
		mx = math.Max(mx, v)
		return nil
	})
	if mn < 1 || mx >= 199 {
		t.Fatalf("range [%v, %v] escapes [1, 199)", mn, mx)
	}
}

func TestNonIIDWorkload(t *testing.T) {
	s, truth, err := PaperNonIID(20000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if truth != 100 {
		t.Fatalf("paper non-iid truth = %v, want 100", truth)
	}
	if s.NumBlocks() != 5 || s.TotalLen() != 100000 {
		t.Fatalf("store shape %d/%d", s.NumBlocks(), s.TotalLen())
	}
	mean, _ := s.ExactMean()
	if math.Abs(mean-100) > 0.6 {
		t.Fatalf("empirical mean %v far from 100", mean)
	}
}

func TestNonIIDValidation(t *testing.T) {
	if _, _, err := NonIID(nil, 1); err == nil {
		t.Error("empty specs accepted")
	}
	if _, _, err := NonIID([]BlockSpec{{Dist: stats.Normal{}, N: 0}}, 1); err == nil {
		t.Error("zero-size block accepted")
	}
}

func TestSalaryShape(t *testing.T) {
	s, truth, err := Salary(200000, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The declared mean should be near the published 1740.38 (±10%: the
	// mixture was tuned to the published value, not fit to data).
	if math.Abs(truth-1740)/1740 > 0.1 {
		t.Fatalf("salary mixture mean %v strays from 1740", truth)
	}
	// Shape: substantial zero/low mass and a heavy right tail.
	var lows, highs, n int
	s.Scan(func(v float64) error {
		n++
		if v < 25 {
			lows++
		}
		if v > 10000 {
			highs++
		}
		return nil
	})
	if frac := float64(lows) / float64(n); frac < 0.2 || frac > 0.4 {
		t.Fatalf("low-earner fraction %v outside [0.2, 0.4]", frac)
	}
	if highs == 0 {
		t.Fatal("no heavy right tail")
	}
}

func TestTLCShape(t *testing.T) {
	s, truth, err := TLCTrips(200000, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Mean near the published 4648.2 (±15%).
	if math.Abs(truth-4648)/4648 > 0.15 {
		t.Fatalf("tlc mixture mean %v strays from 4648", truth)
	}
	// Shape: clustered small values AND clustered large values (the
	// paper's "too big and too small values are highly clustered").
	var band int64
	s.Scan(func(v float64) error {
		if v >= 15000 && v < 22000 {
			band++
		}
		return nil
	})
	if longHaul := float64(band) / float64(s.TotalLen()); longHaul < 0.05 {
		t.Fatalf("long-haul cluster fraction %v too small", longHaul)
	}
}

func TestTPCHLineitem(t *testing.T) {
	s, truth, err := TPCHLineitem(200000, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if truth != 25.5*1500 {
		t.Fatalf("declared mean %v", truth)
	}
	mean, _ := s.ExactMean()
	if math.Abs(mean-truth)/truth > 0.02 {
		t.Fatalf("empirical mean %v vs declared %v", mean, truth)
	}
	// Declared stddev should match empirical within a few percent.
	var m stats.Moments
	s.Scan(func(v float64) error { m.Add(v); return nil })
	want := lineitemDist{}.StdDev()
	if math.Abs(m.StdDev()-want)/want > 0.05 {
		t.Fatalf("empirical stddev %v vs declared %v", m.StdDev(), want)
	}
}
