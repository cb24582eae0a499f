package engine

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"isla/internal/block"
	"isla/internal/stats"
	"isla/internal/workload"
)

// countingBlock counts the values drawn from its block.
type countingBlock struct {
	block.Block
	drawn *atomic.Int64
}

func (c countingBlock) SampleInto(r *stats.RNG, dst []float64) error {
	c.drawn.Add(int64(len(dst)))
	return c.Block.SampleInto(r, dst)
}

// TestBaselineSamplesAreDraws: a baseline answer's Samples is the number of
// values its estimator drew, pilot aside. On 16 equal blocks a sample size
// 16 does not divide used to leave STS reporting draws it never made.
func TestBaselineSamplesAreDraws(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 160_000, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	var drawn atomic.Int64
	blocks := make([]block.Block, 0, 16)
	for _, b := range s.Blocks() {
		blocks = append(blocks, countingBlock{b, &drawn})
	}
	cat := NewCatalog()
	cat.Register("t", block.NewStore(blocks...))
	e := New(cat)
	for _, m := range []string{"US", "STS", "MV", "MVB"} {
		drawn.Store(0)
		res, err := e.ExecuteSQL("SELECT AVG(v) FROM t WITH PRECISION 0.5 METHOD " + m + " SEED 3")
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Samples%16 == 0 {
			t.Fatalf("%s: %d samples; the test needs a size 16 does not divide", m, res.Samples)
		}
		if got := drawn.Load() - res.PilotSize; got != res.Samples {
			t.Errorf("%s: answered %d samples, drew %d", m, res.Samples, got)
		}
	}
}

// TestBaselineCICoverage is TestCICoverage's repeated-seed test for the
// baselines' intervals on 1 M rows in 10 blocks (data seed 7) at e = 0.5:
// US's plain-mean interval and STS's stratified one must each cover the
// table's mean in at least 181 of 200 seeds, three binomial standard errors
// below 95 %. MV and MVB are biased and print none.
func TestBaselineCICoverage(t *testing.T) {
	const seeds, floor = 200, 181
	for _, d := range []stats.Dist{stats.Normal{Mu: 100, Sigma: 20}, stats.Exponential{Gamma: 0.05}} {
		s, _, err := workload.Generate(workload.Spec{Name: fmt.Sprint(d), Dist: d, N: 1_000_000, Blocks: 10, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		truth, err := s.ExactMean()
		if err != nil {
			t.Fatal(err)
		}
		cat := NewCatalog()
		cat.Register("t", s)
		e := New(cat)
		e.EnablePlanCache(0) // the four methods of a seed share its pilot
		covered := map[string]int{}
		for seed := 1; seed <= seeds; seed++ {
			for _, m := range []string{"US", "STS", "MV", "MVB"} {
				res, err := e.ExecuteSQL(fmt.Sprintf("SELECT AVG(v) FROM t WITH PRECISION 0.5 METHOD %s SEED %d", m, seed))
				if err != nil {
					t.Fatalf("%v %s seed %d: %v", d, m, seed, err)
				}
				switch {
				case m == "MV" || m == "MVB":
					if res.CI != nil {
						t.Fatalf("%v %s seed %d: a biased estimator printed ±%v", d, m, seed, res.CI.HalfWidth)
					}
				case res.CI == nil:
					t.Fatalf("%v %s seed %d: no interval", d, m, seed)
				case math.Abs(res.Value-truth) <= res.CI.HalfWidth:
					covered[m]++
				}
			}
		}
		for _, m := range []string{"US", "STS"} {
			t.Logf("%v: %s covers %d of %d", d, m, covered[m], seeds)
			if covered[m] < floor {
				t.Errorf("%v: %s covers %d of %d, want at least %d", d, m, covered[m], seeds, floor)
			}
		}
	}
}
