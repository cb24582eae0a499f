package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"isla/internal/block"
	"isla/internal/leverage"
	"isla/internal/stats"
	"isla/internal/workload"
)

// local is s's in-process source under cfg.
func local(s *block.Store, cfg Config) BlockSource {
	return LocalExecutor{S: s}.Source(cfg)
}

func session(t *testing.T) (*Session, float64) {
	t.Helper()
	s, truth, err := workload.Normal(100, 20, 400000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 1.0
	cfg.Seed = 5
	sess, err := NewSession(local(s, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sess, truth
}

func TestSessionRefineImprovesPrecision(t *testing.T) {
	sess, truth := session(t)
	snap1, err := sess.Refine(1)
	if err != nil {
		t.Fatal(err)
	}
	if snap1.Round != 1 || sess.Rounds() != 1 {
		t.Fatalf("round bookkeeping: %d/%d", snap1.Round, sess.Rounds())
	}
	first := snap1.Result.CI.HalfWidth
	samples1 := sess.TotalSamples()

	var last Snapshot
	for i := 0; i < 3; i++ {
		last, err = sess.Refine(1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if sess.TotalSamples() <= samples1 {
		t.Fatal("refinement drew no new samples")
	}
	// Effective precision must tighten roughly as 1/sqrt(rounds).
	if last.Result.CI.HalfWidth >= first {
		t.Fatalf("precision did not improve: %v -> %v", first, last.Result.CI.HalfWidth)
	}
	want := first / math.Sqrt(4)
	if math.Abs(last.Result.CI.HalfWidth-want) > 0.1*want {
		t.Fatalf("precision %v, want ~%v after 4 rounds", last.Result.CI.HalfWidth, want)
	}
	if math.Abs(last.Result.Estimate-truth) > 1.0 {
		t.Fatalf("refined estimate %v vs truth %v", last.Result.Estimate, truth)
	}
}

func TestSessionAnswersStayAnchored(t *testing.T) {
	sess, truth := session(t)
	for i := 0; i < 5; i++ {
		snap, err := sess.Refine(0.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(snap.Result.Estimate-truth) > 2 {
			t.Fatalf("round %d estimate %v strayed from %v", i+1, snap.Result.Estimate, truth)
		}
	}
}

func TestSessionRefineValidation(t *testing.T) {
	sess, _ := session(t)
	if _, err := sess.Refine(0); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, err := sess.Refine(-1); err == nil {
		t.Fatal("negative fraction accepted")
	}
}

// TestRefineRefusesUnhonourableFractions: a fraction that is not finite, or
// whose per-block draw count an int64 cannot hold, is refused before
// anything is drawn — int64(NaN·…) and an overflowing product both saturate,
// which max(1, …) once turned into a silent one-draw round.
func TestRefineRefusesUnhonourableFractions(t *testing.T) {
	sess, _ := session(t)
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		if snap, err := sess.Refine(f); err == nil {
			t.Fatalf("fraction %v accepted: %d samples, ±%v", f, snap.Result.TotalSamples, snap.Result.CI.HalfWidth)
		}
	}
	if sess.Rounds() != 0 || sess.TotalSamples() != 0 {
		t.Fatalf("refused rounds left %d rounds, %d samples", sess.Rounds(), sess.TotalSamples())
	}
}

// losingSource is a store's source whose calculation phase, while lose is
// set, reports the blocks at the layout indices in lost lost — what a shard
// source under AllowPartial replies when no replica of a block answers.
type losingSource struct {
	BlockSource
	lost []int
	lose bool
}

func (l *losingSource) Phase(ctx context.Context, reqs []PhaseReq, f *Filter) ([]PhaseRep, error) {
	reps, err := l.BlockSource.Phase(ctx, reqs, f)
	for k := range reps {
		if l.lose && reqs[k].Plan != nil && slices.Contains(l.lost, reqs[k].Block) {
			reps[k] = PhaseRep{Lost: true}
		}
	}
	return reps, err
}

// TestRefineRefusesLostBlocks: a session keeps no partial accounting, so a
// round that loses blocks fails with the typed error naming them, ascending,
// and leaves the session as it was — the next round answers what a session
// that never saw the loss answers. The second store's block ids run 7, 3, 5,
// so losing its first two blocks names [3 7], not the layout's [7 3].
func TestRefineRefusesLostBlocks(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 40_000, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	parts := s.View(0, 3).Blocks()
	shuffled := block.NewStore(
		block.NewMemBlock(7, memData(parts[0])),
		block.NewMemBlock(3, memData(parts[1])),
		block.NewMemBlock(5, memData(parts[2])))
	for _, tc := range []struct {
		name string
		s    *block.Store
		lost []int // layout indices
		want []int // block ids, ascending
	}{
		{"ascending ids", s, []int{1}, []int{s.Block(1).ID()}},
		{"ids 7, 3, 5", shuffled, []int{0, 1}, []int{3, 7}},
	} {
		cfg := DefaultConfig()
		cfg.Precision = 1.0
		cfg.Seed = 5
		src := &losingSource{BlockSource: local(tc.s, cfg), lost: tc.lost}
		sess, err := NewSession(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Refine(1); err != nil {
			t.Fatal(err)
		}
		src.lose = true
		var lost *BlocksLostError
		if _, err := sess.Refine(1); !errors.As(err, &lost) || !slices.Equal(lost.Blocks, tc.want) {
			t.Fatalf("%s: round losing blocks at %v: %v, want *BlocksLostError naming %v", tc.name, tc.lost, err, tc.want)
		}
		if sess.Rounds() != 1 {
			t.Fatalf("%s: the failed round counted: %d rounds", tc.name, sess.Rounds())
		}
		src.lose = false
		got, err := sess.Refine(1)
		if err != nil {
			t.Fatal(err)
		}
		quiet, err := NewSession(local(tc.s, cfg), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want Snapshot
		for range 2 {
			if want, err = quiet.Refine(1); err != nil {
				t.Fatal(err)
			}
		}
		if got.Result.Estimate != want.Result.Estimate || got.Result.TotalSamples != want.Result.TotalSamples {
			t.Fatalf("%s: round after a lost one: %v over %d samples, want %v over %d", tc.name,
				got.Result.Estimate, got.Result.TotalSamples, want.Result.Estimate, want.Result.TotalSamples)
		}
	}
}

func TestNewSessionValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := NewSession(local(block.NewStore(), cfg), cfg); err == nil {
		t.Fatal("empty store accepted")
	}
	s, _, _ := workload.Normal(100, 20, 1000, 2, 1)
	cfg.Precision = -1
	if _, err := NewSession(local(s, cfg), cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSessionSampleAccounting(t *testing.T) {
	sess, _ := session(t)
	if sess.TotalSamples() != 0 {
		t.Fatal("samples before first refine")
	}
	snap, err := sess.Refine(1)
	if err != nil {
		t.Fatal(err)
	}
	var fromBlocks int64
	for _, br := range snap.PerBlock {
		fromBlocks += br.Samples
	}
	if fromBlocks != sess.TotalSamples() {
		t.Fatalf("per-block samples %d != session total %d", fromBlocks, sess.TotalSamples())
	}
}

// roundCancellingBlock cancels the round while its first chunk is being drawn
// and counts the draws requested after that.
type roundCancellingBlock struct {
	block.Block
	cancel context.CancelFunc // nil until the round starts
	gone   bool
	late   int64
}

func (c *roundCancellingBlock) SampleInto(r *stats.RNG, dst []float64) error {
	if c.gone {
		c.late += int64(len(dst))
	}
	err := block.SampleInto(c.Block, r, dst)
	if c.cancel != nil && !c.gone {
		c.gone = true
		c.cancel()
	}
	return err
}

// TestRefineCancelStopsWithinAChunk: a round cancelled mid-draw returns after
// at most one more chunk — here of a round planned at some 90 chunks on one
// 200 000-row block — and leaves the session as it was, so the next round
// answers what the cancelled one would have.
func TestRefineCancelStopsWithinAChunk(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 200_000, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 1.0
	cfg.Seed = 5
	cb := &roundCancellingBlock{Block: s.Block(0)}
	sess, err := NewSession(local(block.NewStore(cb), cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cb.cancel = cancel
	if _, err := sess.RefineContext(ctx, 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled round returned %v, want context.Canceled", err)
	}
	if cb.late > block.ChunkSize {
		t.Fatalf("%d draws requested after cancellation, want at most one chunk (%d)", cb.late, block.ChunkSize)
	}
	if sess.Rounds() != 0 || sess.TotalSamples() != 0 {
		t.Fatalf("a cancelled round left %d rounds, %d samples", sess.Rounds(), sess.TotalSamples())
	}

	cb.cancel = nil
	got, err := sess.Refine(1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSession(local(s, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Refine(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Estimate != want.Result.Estimate || got.Result.TotalSamples != want.Result.TotalSamples {
		t.Fatalf("round after a cancelled one: %v over %d samples, want %v over %d",
			got.Result.Estimate, got.Result.TotalSamples, want.Result.Estimate, want.Result.TotalSamples)
	}
}

// TestFirstRoundIsEstimate: a session plans as Estimate does, so its
// first full round draws the same samples and answers the same bits.
func TestFirstRoundIsEstimate(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 400000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 1.0
	cfg.Seed = 5
	sess, err := NewSession(local(s, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Refine(1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Estimate(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Result.Estimate != want.Estimate || snap.Result.TotalSamples != want.TotalSamples {
		t.Fatalf("first round %v over %d samples, Estimate %v over %d",
			snap.Result.Estimate, snap.Result.TotalSamples, want.Estimate, want.TotalSamples)
	}
}

// TestSumsSurviveRecycledScratch: the sums a session keeps between rounds
// are its own — a query's calculation phase recycles per-block scratch, and
// 100 queries on the same store, with as many and with fewer blocks, must
// leave round 1's sums untouched and round 2 answering as it would have.
func TestSumsSurviveRecycledScratch(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 400000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Precision = 1.0
	cfg.Seed = 5
	sess, err := NewSession(local(s, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Refine(1); err != nil {
		t.Fatal(err)
	}
	kept := make([]leverage.Accum, len(sess.sums))
	for i, acc := range sess.sums {
		kept[i] = *acc
	}
	other := s.View(2, 7)
	ctx := context.Background()
	for i := range 100 {
		q := cfg
		q.Seed = uint64(100 + i)
		q.Workers = i%3 - 1
		on := s
		if i%2 == 1 {
			on = other
		}
		if _, err := Estimate(ctx, on, q); err != nil {
			t.Fatal(err)
		}
	}
	for i, acc := range sess.sums {
		if *acc != kept[i] {
			t.Fatalf("block %d: round-1 sums %+v became %+v after 100 other queries", i, kept[i], *acc)
		}
	}

	// Round 2 answers the bits of a session that ran no queries in between.
	got, err := sess.Refine(1)
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := NewSession(local(s, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want Snapshot
	for range 2 {
		if want, err = quiet.Refine(1); err != nil {
			t.Fatal(err)
		}
	}
	if got.Result.Estimate != want.Result.Estimate || got.Result.TotalSamples != want.Result.TotalSamples {
		t.Fatalf("round 2: %v over %d samples, a quiet session %v over %d",
			got.Result.Estimate, got.Result.TotalSamples, want.Result.Estimate, want.Result.TotalSamples)
	}
}

// drawValues returns m values drawn from b with r, as a probe or a
// calculation request draws them, in draw order.
func drawValues(t *testing.T, b block.Block, r *stats.RNG, m int64) []float64 {
	t.Helper()
	var vs []float64
	if err := block.SampleChunks(b, r, m, func(chunk []float64) error {
		vs = append(vs, chunk...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return vs
}

// plainMoments returns the mean of vs and its squared standard error
// s²/n, in two passes.
func plainMoments(vs []float64) (mean, v float64) {
	for _, x := range vs {
		mean += x
	}
	n := float64(len(vs))
	mean /= n
	for _, x := range vs {
		v += (x - mean) * (x - mean)
	}
	return mean, v / (n - 1) / n
}

// An online session's centred sums after two rounds are one phase's over
// both rounds' draws: recomputed here value by value from the seeds the
// frozen generator hands each round, on data that needs the negative-data
// shift. The snapshot's per-block draw moments pool them with the block's
// pilot probe, replayed from its seed: the master stream's next, in block
// order.
func TestSessionCentredSums(t *testing.T) {
	s, _, err := workload.Normal(0, 20, 200003, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 9
	src := local(s, cfg)
	sess, err := NewSession(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	for range 2 {
		if snap, err = sess.Refine(1); err != nil {
			t.Fatal(err)
		}
	}
	fp, err := FreezePilot(context.Background(), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, lens := src.Layout()
	probes := stats.NewRNG(cfg.Seed)
	pooled := make([][]float64, len(lens))
	for i, blen := range lens {
		pooled[i] = drawValues(t, s.Block(i), stats.NewRNG(probes.Uint64()), min(max(blen/100, pilotFloor), blen))
	}
	r := fp.RNG.RNG()
	type sums struct{ d, d2, abs float64 }
	want := make([]sums, len(lens))
	draws := make([]int64, len(lens))
	for range 2 {
		for i, p := range sess.plans {
			if p == nil {
				continue
			}
			if p.Shift == 0 {
				t.Fatal("the table needs no shift; the test would not exercise it")
			}
			m := max(1, int64(p.Pilot.SampleRate*float64(lens[i])))
			vs := drawValues(t, s.Block(i), stats.NewRNG(r.Uint64()), m)
			c := p.Bounds.Center - p.Shift
			for _, v := range vs {
				x := v - c
				want[i] = sums{want[i].d + x, want[i].d2 + x*x, want[i].abs + math.Abs(x)}
			}
			draws[i] += m
			pooled[i] = append(pooled[i], vs...)
		}
	}
	for i, acc := range sess.sums {
		if acc == nil {
			continue
		}
		w := want[i]
		if acc.Seen != draws[i] || math.Abs(acc.D-w.d) > 1e-12*w.abs || math.Abs(acc.D2-w.d2) > 1e-12*w.d2 {
			t.Fatalf("block %d: %d draws, D %v, D2 %v; both rounds' draws give %d, %v, %v", i, acc.Seen, acc.D, acc.D2, draws[i], w.d, w.d2)
		}
		mean, v := plainMoments(pooled[i])
		got := snap.PerBlock[i].Detail
		if n := int64(len(pooled[i])); got.Draws != n || n != draws[i]+fp.Pilots[i].Draws ||
			math.Abs(got.DrawMean-mean) > 1e-9 || math.Abs(got.DrawVar-v) > 1e-9*v {
			t.Fatalf("block %d: draw moments %d, %v, %v; the probe's and both rounds' draws give %d, %v, %v",
				i, got.Draws, got.DrawMean, got.DrawVar, n, mean, v)
		}
	}
}
