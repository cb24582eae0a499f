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
	"isla/internal/stats"
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

// estimateBlocks is Estimate keeping the per-block partials: the pilot
// frozen over the store's source, then resumed with a destination for them.
func estimateBlocks(t *testing.T, s *block.Store, cfg core.Config) (core.Result, []core.BlockResult) {
	t.Helper()
	ctx := context.Background()
	src := core.LocalExecutor{S: s}.Source(cfg)
	fp, err := core.FreezePilot(ctx, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]core.BlockResult, s.NumBlocks())
	res, err := core.EstimateFrozen(ctx, src, cfg, fp, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return res, blocks
}

// sameResult demands bit-identical answers and per-block partials (aBlocks
// and bBlocks, the runs' destinations).
func sameResult(t *testing.T, label string, a, b core.Result, aBlocks, bBlocks []core.BlockResult) {
	t.Helper()
	if math.Float64bits(a.Estimate) != math.Float64bits(b.Estimate) {
		t.Fatalf("%s: estimate %v (%#016x) vs %v (%#016x)", label,
			a.Estimate, math.Float64bits(a.Estimate), b.Estimate, math.Float64bits(b.Estimate))
	}
	if math.Float64bits(a.Sum) != math.Float64bits(b.Sum) || a.TotalSamples != b.TotalSamples {
		t.Fatalf("%s: sum/samples diverged: %v/%d vs %v/%d", label, a.Sum, a.TotalSamples, b.Sum, b.TotalSamples)
	}
	// The guard's inputs and verdict agree too, and an answer it let
	// through is ISLA's own, bit for bit.
	if math.Float64bits(a.Raw) != math.Float64bits(b.Raw) || a.Fallback != b.Fallback ||
		math.Float64bits(a.DrawMean) != math.Float64bits(b.DrawMean) || math.Float64bits(a.DrawSE) != math.Float64bits(b.DrawSE) {
		t.Fatalf("%s: guard diverged: raw %v mean %v ± %v fallback %v vs raw %v mean %v ± %v fallback %v", label,
			a.Raw, a.DrawMean, a.DrawSE, a.Fallback, b.Raw, b.DrawMean, b.DrawSE, b.Fallback)
	}
	want := a.Raw
	if a.Fallback {
		want = a.DrawMean
	}
	if math.Float64bits(a.Estimate) != math.Float64bits(want) {
		t.Fatalf("%s: estimate %v is neither the raw answer %v nor, with fallback %v, the draw mean %v",
			label, a.Estimate, a.Raw, a.Fallback, a.DrawMean)
	}
	if len(aBlocks) != len(bBlocks) {
		t.Fatalf("%s: per-block count %d vs %d", label, len(aBlocks), len(bBlocks))
	}
	for i := range aBlocks {
		ad, bd := aBlocks[i].Detail, bBlocks[i].Detail
		if math.Float64bits(aBlocks[i].Answer) != math.Float64bits(bBlocks[i].Answer) ||
			math.Float64bits(ad.DrawMean) != math.Float64bits(bd.DrawMean) ||
			math.Float64bits(ad.DrawVar) != math.Float64bits(bd.DrawVar) || ad.Draws != bd.Draws {
			t.Fatalf("%s: block %d answer %v (draws %d: %v, %v) vs %v (draws %d: %v, %v)", label, i,
				aBlocks[i].Answer, ad.Draws, ad.DrawMean, ad.DrawVar, bBlocks[i].Answer, bd.Draws, bd.DrawMean, bd.DrawVar)
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
			batchRes, batchBlocks := estimateBlocks(t, s, cfg)
			scalarRes, scalarBlocks := estimateBlocks(t, scalar, cfg)
			sameResult(t, fmt.Sprintf("%s workers=%d", name, workers), batchRes, scalarRes, batchBlocks, scalarBlocks)
			facade, err := Estimate(context.Background(), s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%s workers=%d facade", name, workers), batchRes, facade, nil, nil)

			cfg.Workers = -1
			par, parBlocks := estimateBlocks(t, s, cfg)
			sameResult(t, fmt.Sprintf("%s workers=%d parallel", name, workers), batchRes, par, batchBlocks, parBlocks)
		}
	}
}

func TestBatchScalarEquivalenceRefine(t *testing.T) {
	for name, s := range equivStores(t) {
		for _, workers := range []int{0, 1, 4} {
			cfg := equivCfg()
			cfg.Workers = workers
			batchSess, err := NewSession(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scalarSess, err := NewSession(scalarize(s), cfg)
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
				sameResult(t, fmt.Sprintf("%s workers=%d round=%d", name, workers, round), bs.Result, ss.Result, bs.PerBlock, ss.PerBlock)
			}
		}
	}
}

func TestBatchScalarEquivalenceTimeBound(t *testing.T) {
	// A budget that finishes every round removes wall-clock feedback: the
	// schedule is fixed, so the run is a deterministic function of the seed
	// and can be compared bitwise.
	for name, s := range equivStores(t) {
		for _, workers := range []int{0, 1, 4} {
			cfg := equivCfg()
			cfg.Workers = workers
			batchRes, err := EstimateTimeBound(context.Background(), s, cfg, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			scalarRes, err := EstimateTimeBound(context.Background(), scalarize(s), cfg, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if batchRes.Truncated || scalarRes.Truncated {
				t.Fatalf("%s workers=%d: unexpected truncation", name, workers)
			}
			if math.Float64bits(batchRes.CI.HalfWidth) != math.Float64bits(scalarRes.CI.HalfWidth) {
				t.Fatalf("%s workers=%d: precision %v vs %v", name, workers,
					batchRes.CI.HalfWidth, scalarRes.CI.HalfWidth)
			}
			sameResult(t, fmt.Sprintf("%s workers=%d timebound", name, workers), batchRes.Result, scalarRes.Result, batchRes.PerBlock, scalarRes.PerBlock)
		}
	}
}

// Golden values pinning the determinism contract across releases: same
// Config.Seed ⇒ same bits, batched or not, on every storage path and worker
// count. First captured from the pre-batching scalar implementation;
// re-captured when every unfiltered caller moved onto the one frozen
// per-block pipeline with its 400-draw probe floor. The online session's
// second round was pinned when rounds started merging each round's fresh
// power sums into the stored ones (it read 0x4058f3d1e362af9a while one fold
// ran on across rounds; the third round's estimate did not move).
//
// On this table the summarization's guard fires for the plain estimate and
// both pinned online rounds: their ISLA answers, pinned as Raw, lie more than
// u·SE from the plain mean of their own draws, which is what they print
// (truth 99.9765, e = 0.1). The variance-aware estimate keeps ISLA's answer.
func TestBatchGoldenValues(t *testing.T) {
	const (
		goldenRaw      = 0x4058f2ddfcf8903a // 99.79479908250588, ISLA's answer
		goldenEstimate = 0x4058f9f5f3dfc9b1 // 99.90563675741465, the printed plain mean
		goldenSamples  = 155160
		goldenVarAware = 0x4058f3195dd74f3a // 99.79842325235668
		goldenOnline2  = 0x4058f3d1e362af98 // Raw after two rounds
		goldenOnline   = 0x4058f466fcef5454 // 99.81878589031231, Raw after three
		goldenPrinted2 = 0x4058feacbbe3062a // 99.97929284258194, printed after two rounds
		goldenPrinted  = 0x405900d61a22d4ad // 100.01306775475923, printed after three
	)
	// golden checks one result against its pinned Raw and printed bits.
	golden := func(what string, res Result, raw, printed uint64) {
		t.Helper()
		if bits := math.Float64bits(res.Raw); bits != raw {
			t.Fatalf("%s: raw %v (%#016x), want golden %#016x", what, res.Raw, bits, raw)
		}
		if !res.Fallback {
			t.Fatalf("%s: the guard did not fall back (raw %v, draw mean %v ± %v)", what, res.Raw, res.DrawMean, res.DrawSE)
		}
		if bits := math.Float64bits(res.Estimate); bits != printed {
			t.Fatalf("%s: estimate %v (%#016x), want golden %#016x", what, res.Estimate, bits, printed)
		}
	}
	for name, s := range equivStores(t) {
		for _, workers := range []int{0, 1, 4} {
			cfg := equivCfg()
			cfg.Workers = workers
			res, err := Estimate(context.Background(), s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			golden(fmt.Sprintf("%s workers=%d", name, workers), res, goldenRaw, goldenEstimate)
			if res.TotalSamples != goldenSamples {
				t.Fatalf("%s workers=%d: samples %d, want %d", name, workers, res.TotalSamples, goldenSamples)
			}
		}
	}

	mem := equivStores(t)["mem"]
	cfg := equivCfg()
	cfg.VarianceAwareRates = true
	res, err := Estimate(context.Background(), mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(res.Estimate); bits != goldenVarAware || res.Fallback {
		t.Fatalf("variance-aware estimate %v (%#016x, fallback %v), want golden %#016x without fallback",
			res.Estimate, bits, res.Fallback, uint64(goldenVarAware))
	}

	sess, err := NewSession(mem, equivCfg())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	for i := 0; i < 3; i++ {
		if snap, err = sess.Refine(1); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			golden("online after two rounds", snap.Result, goldenOnline2, goldenPrinted2)
		}
	}
	golden("online after three rounds", snap.Result, goldenOnline, goldenPrinted)
}
