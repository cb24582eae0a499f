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
// and bBlocks, the runs' destinations), and that a's answer is what its
// draws certify at band h: with b = max(0, h − u·DrawSE), ISLA's own Raw,
// bit for bit, when it lies within b of DrawMean, and DrawMean ± b on its
// side otherwise.
func sameResult(t *testing.T, label string, a, b core.Result, aBlocks, bBlocks []core.BlockResult, h float64) {
	t.Helper()
	if math.Float64bits(a.Estimate) != math.Float64bits(b.Estimate) {
		t.Fatalf("%s: estimate %v (%#016x) vs %v (%#016x)", label,
			a.Estimate, math.Float64bits(a.Estimate), b.Estimate, math.Float64bits(b.Estimate))
	}
	if math.Float64bits(a.Sum) != math.Float64bits(b.Sum) || a.TotalSamples != b.TotalSamples {
		t.Fatalf("%s: sum/samples diverged: %v/%d vs %v/%d", label, a.Sum, a.TotalSamples, b.Sum, b.TotalSamples)
	}
	// The certificate's inputs and verdict agree too.
	if math.Float64bits(a.Raw) != math.Float64bits(b.Raw) || a.Fallback != b.Fallback ||
		math.Float64bits(a.DrawMean) != math.Float64bits(b.DrawMean) || math.Float64bits(a.DrawSE) != math.Float64bits(b.DrawSE) {
		t.Fatalf("%s: certificate diverged: raw %v mean %v ± %v fallback %v vs raw %v mean %v ± %v fallback %v", label,
			a.Raw, a.DrawMean, a.DrawSE, a.Fallback, b.Raw, b.DrawMean, b.DrawSE, b.Fallback)
	}
	if a.DrawSE == 0 {
		t.Fatalf("%s: the certificate abstained on draws of spread", label)
	}
	u, err := stats.ZValue(a.CI.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	band := max(0, h-u*a.DrawSE)
	want, fallback := a.Raw, false
	if d := a.Raw - a.DrawMean; math.Abs(d) > band {
		want, fallback = a.DrawMean+math.Copysign(band, d), true
	}
	if math.Float64bits(a.Estimate) != math.Float64bits(want) || a.Fallback != fallback {
		t.Fatalf("%s: estimate %v (fallback %v), want %v (fallback %v): raw %v, draw mean %v ± %v, band %v",
			label, a.Estimate, a.Fallback, want, fallback, a.Raw, a.DrawMean, a.DrawSE, band)
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
			sameResult(t, fmt.Sprintf("%s workers=%d", name, workers), batchRes, scalarRes, batchBlocks, scalarBlocks, cfg.Precision)
			facade, err := Estimate(context.Background(), s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%s workers=%d facade", name, workers), batchRes, facade, nil, nil, cfg.Precision)

			cfg.Workers = -1
			par, parBlocks := estimateBlocks(t, s, cfg)
			sameResult(t, fmt.Sprintf("%s workers=%d parallel", name, workers), batchRes, par, batchBlocks, parBlocks, cfg.Precision)
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
				// A round is certified against what it prints, or the
				// precision it was planned at when that is finer.
				sameResult(t, fmt.Sprintf("%s workers=%d round=%d", name, workers, round), bs.Result, ss.Result, bs.PerBlock, ss.PerBlock,
					min(bs.Result.CI.HalfWidth, cfg.Precision))
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
			// The run's session is planned at the pilot's own precision
			// u·σ/√P.
			u, err := stats.ZValue(cfg.Confidence)
			if err != nil {
				t.Fatal(err)
			}
			planned := u * batchRes.Pilot.Sigma / math.Sqrt(float64(batchRes.Pilot.PilotSize))
			sameResult(t, fmt.Sprintf("%s workers=%d timebound", name, workers), batchRes.Result, scalarRes.Result, batchRes.PerBlock, scalarRes.PerBlock,
				min(batchRes.CI.HalfWidth, planned))
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
// On this table every pinned answer prints the summarization's certificate,
// not ISLA's own: the estimate, the variance-aware estimate and both pinned
// online rounds have a Raw (pinned) farther from the stratified plain mean of
// their draws, pilot probes included, than the band allows, so each prints
// that mean moved toward Raw by the band (truth 99.9765, e = 0.1). The
// printed values were re-pinned when the certificate replaced the guard that
// printed the plain mean itself (the estimate read 99.90563675741465, the
// online rounds 99.97929284258194 and 100.01306775475923, and the
// variance-aware estimate printed its Raw, whose interval missed the truth).
func TestBatchGoldenValues(t *testing.T) {
	const (
		goldenRaw      = 0x4058f2ddfcf8903a // 99.79479908250588, ISLA's answer
		goldenEstimate = 0x4058f9bf34a41d00 // 99.90229526545227, printed
		goldenSamples  = 155160
		goldenVarAware = 0x4058f3195dd74f3a // 99.79842325235668, ISLA's answer
		goldenVarPrint = 0x4058f9461b20c800 // 99.89490392876905, printed
		goldenOnline2  = 0x4058f3d1e362af98 // Raw after two rounds
		goldenOnline   = 0x4058f466fcef5454 // 99.81878589031231, Raw after three
		goldenPrinted2 = 0x4058fe85f93c196a // 99.97692709797926, printed after two rounds
		goldenPrinted  = 0x405900b8196e1dbf // 100.01123653176818, printed after three
	)
	// golden checks one result against its pinned Raw and printed bits.
	golden := func(what string, res Result, raw, printed uint64) {
		t.Helper()
		if bits := math.Float64bits(res.Raw); bits != raw {
			t.Fatalf("%s: raw %v (%#016x), want golden %#016x", what, res.Raw, bits, raw)
		}
		if !res.Fallback {
			t.Fatalf("%s: the answer is Raw, not the certificate's (raw %v, draw mean %v ± %v)", what, res.Raw, res.DrawMean, res.DrawSE)
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
	golden("variance-aware", res, goldenVarAware, goldenVarPrint)

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
