package isla

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"
	"time"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/online"
	"isla/internal/stats"
	"isla/internal/timebound"
	"isla/internal/workload"
)

// scalarBlock is the test-only scalar sampler — the pre-batching path as an
// oracle: the block's values read once through Scan, then one Int63n per
// draw. Embedding the interface also hides the fused filtered kernel.
type scalarBlock struct {
	block.Block
	data []float64
}

func (b scalarBlock) SampleInto(r *stats.RNG, dst []float64) error {
	if len(b.data) == 0 && len(dst) > 0 {
		return block.ErrEmptyBlock
	}
	for i := range dst {
		dst[i] = b.data[r.Int63n(int64(len(b.data)))]
	}
	return nil
}

// scalarize wraps every block of s so only the scalar oracle is reachable.
func scalarize(s *block.Store) *block.Store {
	blocks := s.Blocks()
	wrapped := make([]block.Block, len(blocks))
	for i, b := range blocks {
		sb := scalarBlock{Block: b}
		if err := b.Scan(func(v float64) error { sb.data = append(sb.data, v); return nil }); err != nil {
			panic(err)
		}
		wrapped[i] = sb
	}
	return block.NewStore(wrapped...)
}

// equivStores builds the canonical workload as an in-memory store, a
// pread file store and (where supported) a memory-mapped file store over
// identical values — the three storage paths the determinism contract
// spans.
func equivStores(t *testing.T) map[string]*block.Store {
	t.Helper()
	mem, _, err := workload.Normal(100, 20, 200_000, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	var data []float64
	if err := mem.Scan(func(v float64) error { data = append(data, v); return nil }); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(t.TempDir(), "col")
	pread, err := block.WritePartitionedMode(prefix, data, 8, block.ModePread)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pread.Close() })
	stores := map[string]*block.Store{"mem": mem, "pread": pread}
	if block.MmapSupported() {
		paths := make([]string, 8)
		for i := range paths {
			paths[i] = fmt.Sprintf("%s.%03d", prefix, i)
		}
		blocks := make([]block.Block, len(paths))
		for i, p := range paths {
			mb, err := block.Open(i, p, block.ModeMmap)
			if err != nil {
				t.Fatal(err)
			}
			blocks[i] = mb
		}
		mmap := block.NewStore(blocks...)
		t.Cleanup(func() { mmap.Close() })
		stores["mmap"] = mmap
	}
	return stores
}

func equivCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = 42
	return cfg
}

func sameResult(t *testing.T, label string, a, b core.Result) {
	t.Helper()
	if math.Float64bits(a.Estimate) != math.Float64bits(b.Estimate) {
		t.Fatalf("%s: estimate %v (%#016x) vs %v (%#016x)", label,
			a.Estimate, math.Float64bits(a.Estimate), b.Estimate, math.Float64bits(b.Estimate))
	}
	if math.Float64bits(a.Sum) != math.Float64bits(b.Sum) || a.TotalSamples != b.TotalSamples {
		t.Fatalf("%s: sum/samples diverged: %v/%d vs %v/%d", label, a.Sum, a.TotalSamples, b.Sum, b.TotalSamples)
	}
	if len(a.PerBlock) != len(b.PerBlock) {
		t.Fatalf("%s: per-block count %d vs %d", label, len(a.PerBlock), len(b.PerBlock))
	}
	for i := range a.PerBlock {
		if math.Float64bits(a.PerBlock[i].Answer) != math.Float64bits(b.PerBlock[i].Answer) {
			t.Fatalf("%s: block %d answer %v vs %v", label, i, a.PerBlock[i].Answer, b.PerBlock[i].Answer)
		}
	}
}

// The determinism contract of the batched fast path: for the same seed,
// every estimation mode returns bit-identical results through the batched
// capability and through the scalar oracle, at every worker count, on
// memory and file storage alike.
func TestBatchScalarEquivalenceEstimate(t *testing.T) {
	for name, s := range equivStores(t) {
		scalar := scalarize(s)
		for _, workers := range []int{0, 1, 4} {
			cfg := equivCfg()
			cfg.Workers = workers
			batchRes, err := Estimate(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scalarRes, err := Estimate(scalar, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%s workers=%d", name, workers), batchRes, scalarRes)

			par, err := EstimateParallel(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%s workers=%d parallel", name, workers), batchRes, par)
		}
	}
}

func TestBatchScalarEquivalenceRefine(t *testing.T) {
	for name, s := range equivStores(t) {
		for _, workers := range []int{0, 1, 4} {
			cfg := equivCfg()
			cfg.Workers = workers
			batchSess, err := online.NewSession(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scalarSess, err := online.NewSession(scalarize(s), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				bs, err := batchSess.Refine(1)
				if err != nil {
					t.Fatal(err)
				}
				ss, err := scalarSess.Refine(1)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%s workers=%d round=%d", name, workers, round), bs.Result, ss.Result)
			}
		}
	}
}

func TestBatchScalarEquivalenceTimeBound(t *testing.T) {
	// FixedSamples pins the calibration burst and the affordable sample
	// size, removing wall-clock feedback: the run becomes a deterministic
	// function of the seed and can be compared bitwise.
	opts := timebound.Options{FixedSamples: 4000}
	for name, s := range equivStores(t) {
		for _, workers := range []int{0, 1, 4} {
			cfg := equivCfg()
			cfg.Workers = workers
			batchRes, err := timebound.Estimate(context.Background(), s, cfg, 10*time.Second, opts)
			if err != nil {
				t.Fatal(err)
			}
			scalarRes, err := timebound.Estimate(context.Background(), scalarize(s), cfg, 10*time.Second, opts)
			if err != nil {
				t.Fatal(err)
			}
			if batchRes.Truncated || scalarRes.Truncated {
				t.Fatalf("%s workers=%d: unexpected truncation", name, workers)
			}
			if math.Float64bits(batchRes.AchievedPrecision) != math.Float64bits(scalarRes.AchievedPrecision) {
				t.Fatalf("%s workers=%d: precision %v vs %v", name, workers,
					batchRes.AchievedPrecision, scalarRes.AchievedPrecision)
			}
			sameResult(t, fmt.Sprintf("%s workers=%d timebound", name, workers), batchRes.Result, scalarRes.Result)
		}
	}
}

// Golden values captured from the pre-batching scalar implementation (the
// commit before the fast path landed), pinning the determinism contract
// across releases: same Config.Seed ⇒ same bits, batched or not.
func TestBatchGoldenValues(t *testing.T) {
	const (
		goldenEstimate = 0x4058ff66ec953e74 // 99.99065699171643
		goldenSamples  = 154120
		goldenNonIID   = 0x40591d0116601b8d // 100.45319136987219
		goldenOnline   = 0x405903109f447787 // 100.04788953481885
	)
	for name, s := range equivStores(t) {
		for _, workers := range []int{0, 1, 4} {
			cfg := equivCfg()
			cfg.Workers = workers
			res, err := Estimate(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if bits := math.Float64bits(res.Estimate); bits != goldenEstimate {
				t.Fatalf("%s workers=%d: estimate %v (%#016x), want golden %#016x",
					name, workers, res.Estimate, bits, uint64(goldenEstimate))
			}
			if res.TotalSamples != goldenSamples {
				t.Fatalf("%s workers=%d: samples %d, want %d", name, workers, res.TotalSamples, goldenSamples)
			}
		}
	}

	mem := equivStores(t)["mem"]
	cfg := equivCfg()
	cfg.PerBlockBounds = true
	res, err := Estimate(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(res.Estimate); bits != goldenNonIID {
		t.Fatalf("non-iid estimate %v (%#016x), want golden %#016x", res.Estimate, bits, uint64(goldenNonIID))
	}

	sess, err := online.NewSession(mem, equivCfg())
	if err != nil {
		t.Fatal(err)
	}
	var snap online.Snapshot
	for i := 0; i < 3; i++ {
		if snap, err = sess.Refine(1); err != nil {
			t.Fatal(err)
		}
	}
	if bits := math.Float64bits(snap.Result.Estimate); bits != goldenOnline {
		t.Fatalf("online estimate %v (%#016x), want golden %#016x", snap.Result.Estimate, bits, uint64(goldenOnline))
	}
}
