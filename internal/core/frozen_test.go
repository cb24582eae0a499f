package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"isla/internal/workload"
)

// TestEstimateFrozenMatchesPerBlock: freezing the pilot and resuming the
// RNG stream must be bit-identical to the one-shot pipeline (Estimate) for
// the same seed, at the freezing precision and at a re-derived one.
func TestEstimateFrozenMatchesPerBlock(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 100000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 11

	fp, err := FreezePilot(t.Context(), localSource(s, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range []float64{0.5, 1.5} {
		cfg.Precision = prec
		frozen, err := EstimateFrozen(context.Background(), localSource(s, cfg), cfg, fp, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Estimate(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if frozen.Estimate != want.Estimate || frozen.TotalSamples != want.TotalSamples {
			t.Fatalf("precision %v: frozen %v/%d, direct %v/%d",
				prec, frozen.Estimate, frozen.TotalSamples, want.Estimate, want.TotalSamples)
		}
	}
}

// TestEstimateFrozenStoreMismatch: a pilot frozen on one store must be
// rejected, not panic, when run against a store with a different block
// count.
func TestEstimateFrozenStoreMismatch(t *testing.T) {
	s5, _, err := workload.Normal(100, 20, 50000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	s8, _, err := workload.Normal(100, 20, 50000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	fp, err := FreezePilot(t.Context(), localSource(s5, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateFrozen(context.Background(), localSource(s8, cfg), cfg, fp, nil); err == nil ||
		!strings.Contains(err.Error(), "frozen pilot covers") {
		t.Fatalf("err = %v, want block-count mismatch error", err)
	}
}

// TestDestinationKeepsBits: a per-block destination only receives the
// partials the calculation phase folds — EstimateFrozen and
// EstimateFilteredFrozen answer with the same bits with and without one, the
// destination's entries fold to the answer, a stale destination is
// overwritten (a quarantined block's entry naming only its id), and one of
// the wrong length is refused.
func TestDestinationKeepsBits(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 120_000, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	cfg := DefaultConfig()
	cfg.Precision, cfg.Seed, cfg.Workers = 0.5, 9, 4
	src := localSource(s, cfg)
	fp, err := FreezePilot(ctx, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slim, err := EstimateFrozen(ctx, src, cfg, fp, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]BlockResult, s.NumBlocks())
	for i := range blocks {
		blocks[i] = BlockResult{BlockID: -1, Len: 7, Samples: 7, Answer: 7} // stale
	}
	kept, err := EstimateFrozen(ctx, src, cfg, fp, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kept, slim) {
		t.Fatalf("with a destination %+v, without %+v", kept, slim)
	}
	if again := SummarizeBlocks(cfg, kept.Pilot, kept.Shift, blocks, s.TotalLen()); math.Float64bits(again.Estimate) != math.Float64bits(kept.Estimate) ||
		again.TotalSamples != kept.TotalSamples {
		t.Fatalf("destination folds to %v over %d samples, answer %v over %d",
			again.Estimate, again.TotalSamples, kept.Estimate, kept.TotalSamples)
	}
	if _, err := EstimateFrozen(ctx, src, cfg, fp, blocks[:2]); err == nil {
		t.Fatal("a two-entry destination accepted for six blocks")
	}

	// A degraded run clears the stale entries: the missing block's names
	// only its id.
	const victim = 4
	s.Quarantine(victim)
	deg := cfg
	deg.AllowPartial = true
	if _, err := EstimateFrozen(ctx, localSource(s, deg), deg, fp, blocks); err != nil {
		t.Fatal(err)
	}
	if blocks[victim] != (BlockResult{BlockID: victim}) {
		t.Fatalf("missing block's entry = %+v, want its id alone", blocks[victim])
	}
	s.ClearQuarantine()

	f := IntervalFilter(95, math.Inf(1))
	ffp, err := FreezeFilterPilot(ctx, src, cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	fslim, err := EstimateFilteredFrozen(ctx, src, cfg, f, ffp, nil)
	if err != nil {
		t.Fatal(err)
	}
	fblocks := make([]BlockFilterResult, s.NumBlocks())
	fkept, err := EstimateFilteredFrozen(ctx, src, cfg, f, ffp, fblocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fkept, fslim) {
		t.Fatalf("filtered: with a destination %+v, without %+v", fkept, fslim)
	}
	var drawn, accepted int64
	for i, br := range fblocks {
		if br.BlockID != i || br.Drawn == 0 {
			t.Fatalf("filtered block %d = %+v", i, br)
		}
		drawn += br.Drawn
		accepted += br.Accepted
	}
	if drawn != fkept.Drawn || accepted != fkept.Accepted {
		t.Fatalf("destination holds %d drawn / %d accepted, answer %d / %d", drawn, accepted, fkept.Drawn, fkept.Accepted)
	}
	if _, err := EstimateFilteredFrozen(ctx, src, cfg, f, ffp, fblocks[:1]); err == nil {
		t.Fatal("a one-entry filtered destination accepted for six blocks")
	}
}
