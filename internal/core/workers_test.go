package core

// Worker invariance: the answer is a function of the seed, never of how many
// workers resolved the blocks. The first four tests are the parallel
// execution mode's (§VII-E, single-machine variant), which is this package's
// estimator with one worker per CPU.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"isla/internal/block"
	"isla/internal/stats"
	"isla/internal/workload"
)

// runParallel is the parallel mode: one worker per CPU unless cfg.Workers
// says otherwise.
func runParallel(ctx context.Context, s *block.Store, cfg Config) (Result, error) {
	if cfg.Workers == 0 {
		cfg.Workers = -1
	}
	return Estimate(ctx, s, cfg)
}

func TestRunMatchesSequentialEstimateExactly(t *testing.T) {
	s, truth, err := workload.Normal(100, 20, 300000, 12, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 0.3
	cfg.Seed = 23

	seq, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq.Estimate-truth) > 5*cfg.Precision {
		t.Fatalf("sequential estimate %v far from truth %v", seq.Estimate, truth)
	}
	par, err := runParallel(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, seq, par)
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	s, _, err := workload.Normal(50, 10, 200000, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 0.2
	cfg.Seed = 99

	cfg.Workers = 1
	base, err := runParallel(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{4, runtime.NumCPU()} {
		cfg.Workers = w
		got, err := runParallel(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, base, got)
	}
}

func TestRunDeterministicNonIID(t *testing.T) {
	s, _, err := workload.PaperNonIID(40000, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 7
	cfg.PerBlockBounds = true
	cfg.VarianceAwareRates = true

	seq, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := runParallel(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, seq, par)
}

func TestRunContextCancellation(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 100000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the calculation phase starts
	_, err = runParallel(ctx, s, DefaultConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// assertIdentical demands bit-identical results: same estimate, same
// per-block answers, same sample counts.
func assertIdentical(t *testing.T, a, b Result) {
	t.Helper()
	if a.Estimate != b.Estimate {
		t.Fatalf("estimates differ: %v vs %v", a.Estimate, b.Estimate)
	}
	if a.Sum != b.Sum {
		t.Fatalf("sums differ: %v vs %v", a.Sum, b.Sum)
	}
	if a.TotalSamples != b.TotalSamples {
		t.Fatalf("total samples differ: %d vs %d", a.TotalSamples, b.TotalSamples)
	}
	if len(a.PerBlock) != len(b.PerBlock) {
		t.Fatalf("per-block lengths differ: %d vs %d", len(a.PerBlock), len(b.PerBlock))
	}
	for i := range a.PerBlock {
		x, y := a.PerBlock[i], b.PerBlock[i]
		if x.BlockID != y.BlockID || x.Answer != y.Answer || x.Samples != y.Samples {
			t.Fatalf("block %d differs: %+v vs %+v", i, x, y)
		}
	}
}

// threadedPilot is the pilot as it was first written — one generator threaded
// sequentially through the blocks' probes — kept as the oracle FreezePilot's
// skip-ahead scatter is judged against.
func threadedPilot(t *testing.T, s *block.Store, cfg Config) FrozenPilot {
	t.Helper()
	r := stats.NewRNG(cfg.Seed)
	fp := FrozenPilot{Pilots: make([]BlockPilot, s.NumBlocks())}
	var pooled stats.Moments
	for i, b := range s.Blocks() {
		if b.Len() == 0 {
			continue
		}
		probe := min(max(b.Len()/100, 200), b.Len())
		var m stats.Moments
		if err := block.SampleChunks(b, r, probe, block.MomentsSink(&m)); err != nil {
			t.Fatal(err)
		}
		fp.Pilots[i] = BlockPilot{Sketch0: m.Mean(), Sigma: m.SampleStdDev(), Len: b.Len()}
		pooled.Merge(m)
	}
	rate, size, err := planSize(pooled.SampleStdDev(), cfg, s.TotalLen())
	if err != nil {
		t.Fatal(err)
	}
	fp.Base = Pilot{Sketch0: pooled.Mean(), Sigma: pooled.SampleStdDev(), SampleRate: rate, SampleSize: size,
		PilotSize: pooled.Count(), RelaxedE: cfg.RelaxFactor * cfg.Precision, Min: pooled.Min(), Max: pooled.Max()}
	fp.RNG = r.State()
	return fp
}

// TestFreezePilotWorkerInvariance: the pilot's probes now run on the pool in
// parallel from predicted start states; the frozen pilot must not depend on
// the pool's width and must equal the sequentially threaded one bit for bit.
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
	want := threadedPilot(t, s, cfg)
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		got, err := FreezePilot(t.Context(), localSource(s, cfg), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: frozen pilot differs from the threaded one:\n got  %+v\n want %+v", workers, got, want)
		}
	}
}

// TestFreezePilotLengthMismatchTypedError: a block that is not the length
// the layout records draws a different stream; the local pilot refuses it
// with the same typed error the sharded one does.
func TestFreezePilotLengthMismatchTypedError(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 40000, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	src := localSource(s, cfg)
	src.lens[2]-- // the layout now disagrees with the store's block 2
	_, err = FreezePilot(t.Context(), src, cfg)
	var pse *PilotStreamError
	if !errors.As(err, &pse) {
		t.Fatalf("err = %v, want *PilotStreamError", err)
	}
	if pse.BlockID != 2 || pse.Len != 10000 || pse.WantLen != 9999 {
		t.Fatalf("error = %+v, want block 2, length 10000 vs 9999", pse)
	}
}
