package core

import (
	"context"
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"

	"isla/internal/block"
	"isla/internal/stats"
)

// countingBlock wraps a block and counts every data-touching operation,
// while still exposing the wrapped block's persisted summary. Embedding the
// interface hides the fused filtered kernel, so every draw goes through
// SampleInto and is visible to the counter.
type countingBlock struct {
	block.Block
	scans   *atomic.Int64
	samples *atomic.Int64 // values drawn through SampleInto
}

func (c countingBlock) Scan(fn func(v float64) error) error {
	c.scans.Add(1)
	return c.Block.Scan(fn)
}

func (c countingBlock) SampleInto(r *stats.RNG, dst []float64) error {
	c.samples.Add(int64(len(dst)))
	return c.Block.SampleInto(r, dst)
}

func (c countingBlock) Summary() (block.Summary, bool) {
	return block.BlockSummary(c.Block)
}

// countingStore wraps every block of a store.
func countingStore(s *block.Store) (*block.Store, *atomic.Int64, *atomic.Int64) {
	var scans, samples atomic.Int64
	blocks := make([]block.Block, s.NumBlocks())
	for i, b := range s.Blocks() {
		blocks[i] = countingBlock{Block: b, scans: &scans, samples: &samples}
	}
	return block.NewStore(blocks...), &scans, &samples
}

func summaryTestStore(t *testing.T) *block.Store {
	t.Helper()
	r := stats.NewRNG(3)
	d := stats.Normal{Mu: 100, Sigma: 20}
	data := make([]float64, 120_000)
	for i := range data {
		data[i] = d.Sample(r)
	}
	s, err := block.WritePartitioned(filepath.Join(t.TempDir(), "col"), data, 6)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// The headline claim of the persisted footers: with SummaryPilot set, the
// whole pre-estimation on a v2 file store performs zero block scans and
// draws zero samples — pooled and per-block statistics alike — and consumes
// no RNG state.
func TestSummaryPilotTouchesNoData(t *testing.T) {
	s, scans, samples := countingStore(summaryTestStore(t))
	cfg := DefaultConfig()
	cfg.SummaryPilot = true

	fp, err := FreezePilot(t.Context(), localSource(s, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pilot := fp.Base
	if scans.Load() != 0 || samples.Load() != 0 {
		t.Fatalf("summary pilot touched data: %d scans, %d samples", scans.Load(), samples.Load())
	}
	if fp.RNG != stats.NewRNG(cfg.Seed).State() {
		t.Fatal("summary pilot consumed RNG state")
	}
	if pilot.PilotSize != 0 {
		t.Fatalf("pilot size = %d, want 0", pilot.PilotSize)
	}

	// The pilot statistics are the exact store statistics.
	sum, ok := s.Summary()
	if !ok {
		t.Fatal("counting store lost the summaries")
	}
	if math.Float64bits(pilot.Sketch0) != math.Float64bits(sum.Mean()) {
		t.Fatalf("sketch0 %v, want exact mean %v", pilot.Sketch0, sum.Mean())
	}
	if math.Float64bits(pilot.Sigma) != math.Float64bits(sum.SampleStdDev()) {
		t.Fatalf("sigma %v, want exact %v", pilot.Sigma, sum.SampleStdDev())
	}
	if pilot.Min != sum.Min || pilot.Max != sum.Max {
		t.Fatalf("min/max %v/%v, want %v/%v", pilot.Min, pilot.Max, sum.Min, sum.Max)
	}
	if len(fp.Pilots) != s.NumBlocks() {
		t.Fatalf("pilots=%d, want %d", len(fp.Pilots), s.NumBlocks())
	}
	for i, bp := range fp.Pilots {
		bs, _ := block.BlockSummary(s.Block(i))
		if math.Float64bits(bp.Sketch0) != math.Float64bits(bs.Mean()) {
			t.Fatalf("block %d sketch0 %v, want %v", i, bp.Sketch0, bs.Mean())
		}
	}
}

// A full estimation with SummaryPilot still samples during calculation but
// never scans, and stays deterministic per seed across worker counts.
func TestSummaryPilotEstimate(t *testing.T) {
	base := summaryTestStore(t)
	exact, err := base.ExactMean()
	if err != nil {
		t.Fatal(err)
	}
	s, scans, samples := countingStore(base)
	cfg := DefaultConfig()
	cfg.SummaryPilot = true
	cfg.Seed = 99

	res, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scans.Load() != 0 {
		t.Fatalf("estimate scanned %d blocks", scans.Load())
	}
	if samples.Load() == 0 || samples.Load() != res.TotalSamples {
		t.Fatalf("calculation drew %d, result says %d", samples.Load(), res.TotalSamples)
	}
	if res.Pilot.PilotSize != 0 {
		t.Fatalf("pilot size = %d, want 0", res.Pilot.PilotSize)
	}
	if math.Abs(res.Estimate-exact) > 3*cfg.Precision {
		t.Fatalf("estimate %v too far from exact %v", res.Estimate, exact)
	}

	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		again, err := Estimate(context.Background(), s, c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(again.Estimate) != math.Float64bits(res.Estimate) {
			t.Fatalf("workers=%d: estimate %v, want %v", workers, again.Estimate, res.Estimate)
		}
	}

	// Mem stores carry no summaries: SummaryPilot falls back to the
	// sampled pilot and still answers.
	var data []float64
	if err := base.Scan(func(v float64) error { data = append(data, v); return nil }); err != nil {
		t.Fatal(err)
	}
	mem := block.Partition(data, 6)
	memRes, err := Estimate(context.Background(), mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if memRes.Pilot.PilotSize == 0 {
		t.Fatal("mem store claims a zero-cost pilot")
	}
}

// The frozen (plan-cache) path over summary pilots: freezing costs nothing
// and resuming reproduces the cold run bit for bit.
func TestSummaryPilotFrozen(t *testing.T) {
	s := summaryTestStore(t)
	cfg := DefaultConfig()
	cfg.SummaryPilot = true
	cfg.Seed = 7

	fp, err := FreezePilot(t.Context(), localSource(s, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Base.PilotSize != 0 {
		t.Fatalf("frozen pilot size = %d, want 0", fp.Base.PilotSize)
	}
	if fp.RNG != stats.NewRNG(cfg.Seed).State() {
		t.Fatal("freezing a summary pilot consumed RNG state")
	}
	warm, err := EstimateFrozen(t.Context(), localSource(s, cfg), cfg, fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(warm.Estimate) != math.Float64bits(cold.Estimate) {
		t.Fatalf("frozen %v vs cold %v", warm.Estimate, cold.Estimate)
	}
	if warm.TotalSamples != cold.TotalSamples {
		t.Fatalf("samples %d vs %d", warm.TotalSamples, cold.TotalSamples)
	}
}
