package core

import (
	"context"
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
		frozen, err := EstimateFrozen(context.Background(), localSource(s, cfg), cfg, fp)
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
	if _, err := EstimateFrozen(context.Background(), localSource(s8, cfg), cfg, fp); err == nil ||
		!strings.Contains(err.Error(), "frozen pilot covers") {
		t.Fatalf("err = %v, want block-count mismatch error", err)
	}
}
