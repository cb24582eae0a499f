package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"isla/internal/block"
	"isla/internal/stats"
)

func quarantineData(n int) []float64 {
	r := stats.NewRNG(99)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 100 + 20*r.NormFloat64()
	}
	return vals
}

// Without AllowPartial a quarantined store refuses with the typed error
// carrying the exact coverage accounting.
func TestQuarantineRefusedWithoutAllowPartial(t *testing.T) {
	data := quarantineData(1000)
	s := block.Partition(data, 8) // 8 equal blocks of 125
	s.Quarantine(3)
	cfg := DefaultConfig()
	cfg.Seed = 7
	_, err := Estimate(context.Background(), s, cfg)
	var qe *QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuarantinedError", err)
	}
	if !reflect.DeepEqual(qe.Blocks, []int{3}) {
		t.Errorf("Blocks = %v, want [3]", qe.Blocks)
	}
	if qe.TotalRows != 1000 || qe.CoveredRows != 875 {
		t.Errorf("coverage = %d/%d, want 875/1000", qe.CoveredRows, qe.TotalRows)
	}
}

// A fully quarantined store refuses even under AllowPartial — there is
// nothing left to answer from.
func TestQuarantineAllBlocksRefusesEvenPartial(t *testing.T) {
	s := block.Partition(quarantineData(100), 2)
	s.Quarantine(0, 1)
	cfg := DefaultConfig()
	cfg.AllowPartial = true
	_, err := Estimate(context.Background(), s, cfg)
	var qe *QuarantinedError
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuarantinedError", err)
	}
	if qe.CoveredRows != 0 {
		t.Errorf("CoveredRows = %d, want 0", qe.CoveredRows)
	}
}

// The filtered pipeline refuses a store with quarantined blocks whatever
// AllowPartial says: its Horvitz–Thompson count scales by the full row
// count, so planning around the down block would silently drop its rows. A
// filter pilot frozen before the quarantine is refused when it resumes.
func TestQuarantineFilteredRefuses(t *testing.T) {
	data := make([]float64, 40_000)
	for i := range data {
		data[i] = float64(i % 200)
	}
	s := block.Partition(data, 4)
	f := IntervalFilter(50, 150)
	cfg := DefaultConfig()
	cfg.Seed = 7
	ex := LocalExecutor{S: s}
	healthy, err := ex.FreezeFilterPilot(context.Background(), cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	s.Quarantine(1)
	for _, allow := range []bool{false, true} {
		cfg.AllowPartial = allow
		var qe *QuarantinedError
		res, err := estimateFiltered(context.Background(), s, cfg, f)
		if !errors.As(err, &qe) || !reflect.DeepEqual(qe.Blocks, []int{1}) || qe.CoveredRows != 30_000 {
			t.Fatalf("AllowPartial=%v: COUNT %v, err %v; want a *QuarantinedError naming block 1", allow, res.Count, err)
		}
		res, err = ex.EstimateFilteredFrozen(context.Background(), cfg, f, healthy)
		if !errors.As(err, &qe) || !reflect.DeepEqual(qe.Blocks, []int{1}) {
			t.Fatalf("AllowPartial=%v: resumed pilot COUNT %v, err %v; want a *QuarantinedError naming block 1", allow, res.Count, err)
		}
	}
}

// With AllowPartial the run degrades to the intact fraction and the
// Partial accounting matches the lost rows exactly; the estimate targets
// the surviving population's mean.
func TestQuarantinePartialAccountingExact(t *testing.T) {
	const n, b = 1003, 7 // uneven split: block lengths differ
	data := quarantineData(n)
	s := block.Partition(data, b)
	lost := map[int]bool{1: true, 5: true}
	s.Quarantine(1, 5)

	// Exact accounting from the partition arithmetic.
	var lostRows int64
	var survivorSum float64
	var survivorN int64
	for i := 0; i < b; i++ {
		lo, hi := i*n/b, (i+1)*n/b
		if lost[i] {
			lostRows += int64(hi - lo)
			continue
		}
		for _, v := range data[lo:hi] {
			survivorSum += v
		}
		survivorN += int64(hi - lo)
	}

	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.AllowPartial = true
	res, blocks, err := estimateBlocks(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Partial
	if p == nil {
		t.Fatal("Result.Partial = nil on a degraded run")
	}
	if !reflect.DeepEqual(p.MissingBlocks, []int{1, 5}) {
		t.Errorf("MissingBlocks = %v, want [1 5]", p.MissingBlocks)
	}
	if p.TotalRows != n {
		t.Errorf("TotalRows = %d, want %d", p.TotalRows, n)
	}
	if p.CoveredRows != int64(n)-lostRows {
		t.Errorf("CoveredRows = %d, want %d", p.CoveredRows, int64(n)-lostRows)
	}
	// Lost blocks contribute nothing to the merge.
	for _, br := range blocks {
		if lost[br.BlockID] && (br.Len != 0 || br.Samples != 0) {
			t.Errorf("quarantined block %d executed: %+v", br.BlockID, br)
		}
	}
	trueMean := survivorSum / float64(survivorN)
	if diff := math.Abs(res.Estimate - trueMean); diff > 5*cfg.Precision {
		t.Errorf("estimate %.4f vs surviving mean %.4f (diff %.4f)", res.Estimate, trueMean, diff)
	}
	// SUM must scale by the covered population, not the full table.
	if want := res.Estimate * float64(p.CoveredRows); math.Abs(res.Sum-want) > 1e-6 {
		t.Errorf("Sum = %.4f, want Estimate·CoveredRows = %.4f", res.Sum, want)
	}
}

// The determinism contract under quarantine, frozen-pilot leg: freeze on
// the healthy store, quarantine a block, and the surviving blocks' partial
// answers are bit-identical to the healthy run — for any worker count.
func TestQuarantineBitIdentityFrozen(t *testing.T) {
	data := quarantineData(1200)
	s := block.Partition(data, 6)
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Workers = 1
	fp, err := FreezePilot(t.Context(), localSource(s, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	healthyBlocks := make([]BlockResult, s.NumBlocks())
	if _, err := EstimateFrozen(ctx, localSource(s, cfg), cfg, fp, healthyBlocks); err != nil {
		t.Fatal(err)
	}

	const victim = 2
	s.Quarantine(victim)
	cfg.AllowPartial = true
	var prev *Result
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		degBlocks := make([]BlockResult, s.NumBlocks())
		deg, err := EstimateFrozen(ctx, localSource(s, cfg), cfg, fp, degBlocks)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if deg.Partial == nil || !reflect.DeepEqual(deg.Partial.MissingBlocks, []int{victim}) {
			t.Fatalf("workers=%d: Partial = %+v", workers, deg.Partial)
		}
		for i, br := range degBlocks {
			if br.BlockID == victim {
				if br.Len != 0 || br.Samples != 0 {
					t.Errorf("workers=%d: victim executed: %+v", workers, br)
				}
				continue
			}
			if !reflect.DeepEqual(br, healthyBlocks[i]) {
				t.Errorf("workers=%d: survivor %d diverged from the healthy run:\n  healthy %+v\n  degraded %+v",
					workers, br.BlockID, healthyBlocks[i], br)
			}
		}
		if prev != nil {
			if deg.Estimate != prev.Estimate || deg.Sum != prev.Sum {
				t.Errorf("answer depends on worker count: %v vs %v", deg.Estimate, prev.Estimate)
			}
		}
		d := deg
		prev = &d
	}
}

// The same contract on real block files, summary-pilot leg: the pilot
// comes from the (trusted, footer-checksummed) summaries, so a cold
// degraded run's survivors are bit-identical to the cold healthy run —
// across pread and mmap and across worker counts.
func TestQuarantineBitIdentitySummaryPilotFiles(t *testing.T) {
	data := quarantineData(900)
	modes := []block.OpenMode{block.ModePread}
	if block.MmapSupported() {
		modes = append(modes, block.ModeMmap)
	}
	var want []BlockResult // healthy pread partials: the cross-mode reference
	for _, mode := range modes {
		t.Run(fmt.Sprintf("mode=%v", mode), func(t *testing.T) {
			prefix := filepath.Join(t.TempDir(), "qb")
			s, err := block.WritePartitionedMode(prefix, data, 5, mode)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			cfg := DefaultConfig()
			cfg.Seed = 17
			cfg.SummaryPilot = true
			cfg.Workers = 1
			_, healthy, err := estimateBlocks(context.Background(), s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = healthy
			} else if !reflect.DeepEqual(healthy, want) {
				t.Fatal("healthy answers differ across open modes")
			}

			const victim = 1
			s.Quarantine(victim)
			cfg.AllowPartial = true
			for _, workers := range []int{1, 4} {
				cfg.Workers = workers
				_, deg, err := estimateBlocks(context.Background(), s, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				for i, br := range deg {
					if br.BlockID == victim {
						continue
					}
					if !reflect.DeepEqual(br, healthy[i]) {
						t.Errorf("workers=%d: survivor %d diverged:\n  healthy %+v\n  degraded %+v",
							workers, br.BlockID, healthy[i], br)
					}
				}
			}
		})
	}
}

// A cold pilot must not touch quarantined blocks, so on a degraded store it
// still works (it just samples the survivors).
func TestQuarantineColdPilotSamplesSurvivorsOnly(t *testing.T) {
	data := quarantineData(600)
	s := block.Partition(data, 4)
	s.Quarantine(0)
	cfg := DefaultConfig()
	cfg.Seed = 21
	cfg.AllowPartial = true
	res, blocks, err := estimateBlocks(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial == nil || res.Partial.CoveredRows != 450 {
		t.Fatalf("Partial = %+v, want 450 covered rows", res.Partial)
	}
	for _, br := range blocks {
		if br.BlockID == 0 && br.Samples != 0 {
			t.Errorf("quarantined block sampled: %+v", br)
		}
	}
}
