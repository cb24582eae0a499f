package core

// Worker invariance: the answer is a function of the seed, never of how many
// workers resolved the blocks. That the parallel execution mode (§VII-E,
// single-machine variant: this package's estimator with one worker per CPU)
// answers the sequential bits, per-block partials included, is the root
// package's TestInvarianceMatrix (rows estimate and variance-aware, workers
// 0, 1, 4 and −1); here are its cancellation and the pilot's own invariance.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"isla/internal/block"
	"isla/internal/stats"
	"isla/internal/workload"
)

// estimateBlocks is Estimate with a destination for the per-block partials:
// the pilot frozen over the store's source, then EstimateFrozen resumed
// from it.
func estimateBlocks(ctx context.Context, s *block.Store, cfg Config) (Result, []BlockResult, error) {
	src := localSource(s, cfg)
	fp, err := FreezePilot(ctx, src, cfg)
	if err != nil {
		return Result{}, nil, err
	}
	blocks := make([]BlockResult, s.NumBlocks())
	res, err := EstimateFrozen(ctx, src, cfg, fp, blocks)
	return res, blocks, err
}

func TestRunContextCancellation(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 100000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the calculation phase starts
	cfg := DefaultConfig()
	cfg.Workers = -1
	_, _, err = estimateBlocks(ctx, s, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// seededPilot is the pilot written as a sequential loop over the blocks, each
// non-empty block's probe drawn from a fresh generator seeded off the master
// stream in block order — the oracle FreezePilot's one phase is judged
// against.
func seededPilot(t *testing.T, s *block.Store, cfg Config) FrozenPilot {
	t.Helper()
	r := stats.NewRNG(cfg.Seed)
	fp := FrozenPilot{Pilots: make([]BlockPilot, s.NumBlocks())}
	var pooled stats.Moments
	for i, b := range s.Blocks() {
		if b.Len() == 0 {
			continue
		}
		probe := min(max(b.Len()/100, pilotFloor), b.Len())
		var m stats.Moments
		if err := block.SampleChunks(b, stats.NewRNG(r.Uint64()), probe, block.MomentsSink(&m)); err != nil {
			t.Fatal(err)
		}
		fp.Pilots[i] = BlockPilot{Sketch0: m.Mean(), Sigma: m.SampleStdDev(), Len: b.Len(), Draws: probe}
		pooled.Merge(m)
	}
	rate, size, err := planSize(pooled.SampleStdDev(), cfg, s.TotalLen())
	if err != nil {
		t.Fatal(err)
	}
	fp.Base = Pilot{Sketch0: pooled.Mean(), Sigma: pooled.SampleStdDev(), SampleRate: rate, SampleSize: size,
		PilotSize: pooled.Count(), RelaxedE: relaxFactor * cfg.Precision, Min: pooled.Min(), Max: pooled.Max()}
	fp.RNG = r.State()
	return fp
}

// TestFreezePilotWorkerInvariance: the pilot's probes run on the pool in
// parallel; the frozen pilot must not depend on the pool's width and must
// equal the sequential loop's bit for bit.
func TestFreezePilotWorkerInvariance(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 240000, 12, 17)
	if err != nil {
		t.Fatal(err)
	}
	// An empty block and a block shorter than the minimum probe sit in the
	// middle of the stream.
	blocks := append([]block.Block{}, s.Blocks()[:5]...)
	blocks = append(blocks, block.NewMemBlock(100, nil), block.NewMemBlock(101, []float64{3, 1, 4, 1, 5, 9, 2, 6}))
	blocks = append(blocks, s.Blocks()[5:]...)
	s = block.NewStore(blocks...)

	cfg := DefaultConfig()
	cfg.Precision = 0.4
	cfg.Seed = 31
	want := seededPilot(t, s, cfg)
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		got, err := FreezePilot(t.Context(), localSource(s, cfg), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: frozen pilot differs from the sequential one:\n got  %+v\n want %+v", workers, got, want)
		}
	}
}

// TestFreezePilotLengthMismatchTypedError: a block that is not the length
// the layout records draws rows the pilot did not plan; the local pilot
// refuses it with the same typed error the sharded one does.
func TestFreezePilotLengthMismatchTypedError(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 40000, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	src := localSource(s, cfg)
	_, lens := src.Layout()
	lens[2]-- // the layout now disagrees with the store's block 2
	_, err = FreezePilot(t.Context(), src, cfg)
	var pse *BlockLengthError
	if !errors.As(err, &pse) {
		t.Fatalf("err = %v, want *BlockLengthError", err)
	}
	if pse.BlockID != 2 || pse.Len != 10000 || pse.WantLen != 9999 {
		t.Fatalf("error = %+v, want block 2, length 10000 vs 9999", pse)
	}
}
