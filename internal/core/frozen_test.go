package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"isla/internal/block"
	"isla/internal/stats"
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

// recordingSource is a store's source that keeps the requests of every phase
// put to it, in order.
type recordingSource struct {
	BlockSource
	phases [][]PhaseReq
}

func (r *recordingSource) Phase(ctx context.Context, reqs []PhaseReq, f *Filter) ([]PhaseRep, error) {
	r.phases = append(r.phases, slices.Clone(reqs))
	return r.BlockSource.Phase(ctx, reqs, f)
}

// TestOneSeedPerBlockWithACount pins the one rule every sampled draw follows:
// within a phase, request k starts at RNG(s_k), s_k the k-th Uint64 of the
// phase's master generator, and only a block with a count takes a seed. A
// query's master runs from its seed through the pilot (FreezePilot, or both
// FreezeFilterPilot stages) into the calculation (EstimateFrozen,
// EstimateFilteredFrozen), so each query replays as one stream; DrawPhase's
// is the generator it is given. The layout holds an empty block, a block
// shorter than the pilot's floor, a block DrawPhase's allocation gives no
// draws and, in the damaged store, a down block.
func TestOneSeedPerBlockWithACount(t *testing.T) {
	parts := genStore(stats.Normal{Mu: 100, Sigma: 20}, 75_000, 3, 8).Blocks()
	small := block.NewMemBlock(4, []float64{93, 101, 99, 117, 88, 104, 96})
	healthy := block.NewStore(parts[0], block.NewMemBlock(3, nil), parts[1], parts[2], small)
	damaged := block.NewStore(healthy.Blocks()...)
	damaged.Quarantine(parts[2].ID())
	cfg := DefaultConfig()
	cfg.Seed, cfg.AllowPartial = 23, true
	f := IntervalFilter(90, 120)
	ctx := t.Context()
	// drawPhase gives block 2 no draws and every other up block 100 at most.
	drawPhase := func(ctx context.Context, src BlockSource) (stats.RNGState, error) {
		r := stats.NewRNG(cfg.Seed)
		_, _, err := DrawPhase(ctx, src, cfg, 300, r, func(lens []int64, _ int64, _ *stats.RNG) []int64 {
			counts := make([]int64, len(lens))
			for i, l := range lens {
				if i != 2 {
					counts[i] = min(l, 100)
				}
			}
			return counts
		})
		return r.State(), err
	}
	unfiltered := func(ctx context.Context, src BlockSource) (stats.RNGState, error) {
		fp, err := FreezePilot(ctx, src, cfg)
		if err != nil {
			return stats.RNGState{}, err
		}
		_, err = EstimateFrozen(ctx, src, cfg, fp, nil)
		return fp.RNG, err
	}
	filtered := func(ctx context.Context, src BlockSource) (stats.RNGState, error) {
		fp, err := FreezeFilterPilot(ctx, src, cfg, f)
		if err != nil {
			return stats.RNGState{}, err
		}
		_, err = EstimateFilteredFrozen(ctx, src, cfg, f, fp, nil)
		return fp.RNG, err
	}
	all, up := []int{0, 2, 3, 4}, []int{0, 2, 4}
	for _, c := range []struct {
		name string
		s    *block.Store
		run  func(context.Context, BlockSource) (stats.RNGState, error)
		// want is each phase's blocks with a count, in block order; pilot
		// is how many of the phases make the pilot, whose master state the
		// run returns.
		want  [][]int
		pilot int
	}{
		{"FreezePilot, EstimateFrozen", healthy, unfiltered, [][]int{all, all}, 1},
		{"FreezePilot, EstimateFrozen, a block down", damaged, unfiltered, [][]int{up, up}, 1},
		{"FreezeFilterPilot, EstimateFilteredFrozen", healthy, filtered, [][]int{all, all, all}, 2},
		{"DrawPhase", healthy, drawPhase, [][]int{{0, 3, 4}}, 1},
		{"DrawPhase, a block down", damaged, drawPhase, [][]int{{0, 4}}, 1},
	} {
		src := &recordingSource{BlockSource: local(c.s, cfg)}
		end, err := c.run(ctx, src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(src.phases) != len(c.want) {
			t.Fatalf("%s: %d phases, want %d", c.name, len(src.phases), len(c.want))
		}
		master := stats.NewRNG(cfg.Seed)
		for p, reqs := range src.phases {
			if p == c.pilot && master.State() != end {
				t.Fatalf("%s: the pilot left its master at %+v, its %d seeds at %+v", c.name, end, p, master.State())
			}
			var blocks []int
			for k, req := range reqs {
				blocks = append(blocks, req.Block)
				if req.Start != stats.NewRNG(master.Uint64()).State() {
					t.Fatalf("%s, phase %d: request %d (block %d) does not start at RNG(s_%d)", c.name, p, k, req.Block, k)
				}
			}
			if !slices.Equal(blocks, c.want[p]) {
				t.Fatalf("%s, phase %d: requests for blocks %v, want %v", c.name, p, blocks, c.want[p])
			}
		}
		if c.pilot == len(c.want) && master.State() != end {
			t.Fatalf("%s: the phase left its master at %+v, its seeds at %+v", c.name, end, master.State())
		}
	}
}
