package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"isla/internal/block"
	"isla/internal/stats"
	"isla/internal/workload"
)

// ample is a budget that finishes every round of the schedule on any of the
// test tables, so a run under it is a function of the seed alone.
const ample = time.Minute

func TestEstimateWithinBudget(t *testing.T) {
	s, truth, err := workload.Normal(100, 20, 300000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 3
	budget := 200 * time.Millisecond
	res, err := EstimateTimeBound(context.Background(), local(s, cfg), cfg, budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 always finishes and later rounds stop at the deadline, so a
	// 10x overshoot would mean the deadline is not kept.
	if res.Elapsed > 10*budget {
		t.Fatalf("elapsed %v far beyond budget %v", res.Elapsed, budget)
	}
	if res.CI.HalfWidth <= 0 || res.Rounds < 1 {
		t.Fatalf("achieved precision %v after %d rounds", res.CI.HalfWidth, res.Rounds)
	}
	if math.Abs(res.Estimate-truth) > 5*res.CI.HalfWidth {
		t.Fatalf("estimate %v vs truth %v beyond 5× achieved e=%v",
			res.Estimate, truth, res.CI.HalfWidth)
	}
}

func TestLargerBudgetBuysTighterPrecision(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 500000, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 5
	small, err := EstimateTimeBound(context.Background(), local(s, cfg), cfg, 50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	large, err := EstimateTimeBound(context.Background(), local(s, cfg), cfg, 800*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	// On fast hardware both budgets finish every round and print the same
	// precision; a larger budget never completes fewer rounds.
	if large.CI.HalfWidth > small.CI.HalfWidth || large.Rounds < small.Rounds {
		t.Fatalf("larger budget bought worse precision: %v after %d rounds vs %v after %d",
			large.CI.HalfWidth, large.Rounds, small.CI.HalfWidth, small.Rounds)
	}
	if large.TotalSamples < small.TotalSamples {
		t.Fatalf("larger budget drew fewer samples: %d vs %d",
			large.TotalSamples, small.TotalSamples)
	}
}

func TestEstimateValidation(t *testing.T) {
	s, _, _ := workload.Normal(100, 20, 1000, 2, 1)
	cfg := DefaultConfig()
	if _, err := EstimateTimeBound(context.Background(), local(s, cfg), cfg, 0, nil); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := EstimateTimeBound(context.Background(), local(block.NewStore(), cfg), cfg, time.Second, nil); err == nil {
		t.Error("empty store accepted")
	}
}

// given is a freeze that hands back an already frozen pilot, as a plan-cache
// hit does.
func given(fp FrozenPilot) func(context.Context) (FrozenPilot, error) {
	return func(context.Context) (FrozenPilot, error) { return fp, nil }
}

// replay is an online session built from fp as a time-bound run plans it,
// refined with the schedule's first rounds fractions.
func replay(t *testing.T, s *block.Store, cfg Config, fp FrozenPilot, rounds int) Snapshot {
	t.Helper()
	sess, err := timeBoundSession(local(s, cfg), cfg, fp)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	for _, f := range schedule[:rounds] {
		if snap, err = sess.Refine(f); err != nil {
			t.Fatal(err)
		}
	}
	return snap
}

// TestFrozenBranchGolden pins a run that finishes every round: a frozen
// pilot handed in by the caller and one frozen here (with and without
// variance-aware rates) keep their bits. The given pilot is frozen at
// another seed, so its leg can only match if the run resumes that pilot
// instead of freezing its own. The first two legs' ISLA answer, Raw, lies
// outside the band its draws certify, so their printed estimate and sum are
// the certificate's; the variance-aware leg's lies inside, and it prints Raw
// (truth 100.0428). The three Raw values moved in their last
// bits (…e342, …21ab, …3585 before) when Algorithm 2's region masses came
// from the upper tails and its inversions became a bracketed search, again
// (…e336, …21ad, …3586, the bits 386 printed) when φ and Φ took a portable
// exp and erfc, and once more when Algorithm 2's slopes became closed forms
// and its table nine levels deep; nothing printed moved. Since then amd64
// and 386 print the same bits. Every value moved when the unfiltered pilot
// took one master-stream seed per probed block instead of threading one
// generator through the blocks (given pilot: Raw …6c30 → …a997, estimate
// …7bbb → …a9a8; frozen here: Raw …e600 → …bde5, estimate …337d → …a97b;
// variance-aware: Raw …e3fa → …927d, no longer the certificate's, estimate
// …5555 → …927d, samples 1586 → 1580).
func TestFrozenBranchGolden(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 200000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Seed = 9
	other := cfg
	other.Seed = 10
	fp, err := LocalExecutor{S: s}.FreezePilot(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	varAware := cfg
	varAware.VarianceAwareRates = true
	for _, leg := range []struct {
		name                     string
		cfg                      Config
		freeze                   func(context.Context) (FrozenPilot, error)
		raw, est, sum, halfWidth uint64 // the half-width is the achieved precision
		samples                  int64
		fallback                 bool
	}{
		{"given pilot", cfg, given(fp),
			0x4058fc48bd2da997, 0x4058f8d3f1fca9a8, 0x41730d57338f1430, 0x3ff02bbf3d7b1bb6, 1592, true},
		{"frozen here", cfg, nil,
			0x4058f21f25afbde5, 0x4058f45f1f8aa97b, 0x417309f0d2c07a6e, 0x3fef54b9aaf4ddaf, 1592, true},
		{"variance-aware", varAware, nil,
			0x4058f8fe4bd1927d, 0x4058f8fe4bd1927d, 0x41730d7783385413, 0x3fef7320482c9aff, 1580, false},
	} {
		res, err := EstimateTimeBound(ctx, local(s, leg.cfg), leg.cfg, ample, leg.freeze)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if math.Float64bits(res.Raw) != leg.raw || res.Fallback != leg.fallback {
			t.Errorf("%s: raw %#016x, fallback %v", leg.name, math.Float64bits(res.Raw), res.Fallback)
		}
		if math.Float64bits(res.Estimate) != leg.est || math.Float64bits(res.Sum) != leg.sum ||
			math.Float64bits(res.CI.HalfWidth) != leg.halfWidth ||
			res.TotalSamples != leg.samples || res.Rounds != len(schedule) || res.Truncated {
			t.Errorf("%s: estimate %#016x sum %#016x half-width %#016x samples %d rounds %d truncated %v",
				leg.name, math.Float64bits(res.Estimate), math.Float64bits(res.Sum), math.Float64bits(res.CI.HalfWidth),
				res.TotalSamples, res.Rounds, res.Truncated)
		}
	}
}

// TestPilotCapsPrecision pins the schedule's cap: a run that finishes every
// round draws at most half the pilot's P draws and prints the u·σ/√m its m
// draws earned — never a finer precision, however large the budget — and
// that printed precision holds: over 100 seeds the interval covers the truth
// at least as often as a 0.95 binomial floor allows (88 of 100).
func TestPilotCapsPrecision(t *testing.T) {
	s, truth, err := workload.Normal(100, 20, 200000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	u, err := stats.ZValue(cfg.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for seed := uint64(1); seed <= 100; seed++ {
		cfg.Seed = seed
		res, err := EstimateTimeBound(ctx, local(s, cfg), cfg, ample, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := res.TotalSamples
		if want := u * res.Pilot.Sigma / math.Sqrt(float64(m)); res.CI.HalfWidth != want || 2*m > res.Pilot.PilotSize || res.Rounds != len(schedule) {
			t.Fatalf("seed %d: achieved %v (want %v), %d samples (pilot %d), %d rounds",
				seed, res.CI.HalfWidth, want, m, res.Pilot.PilotSize, res.Rounds)
		}
		if math.Abs(res.Estimate-truth) <= res.CI.HalfWidth {
			covered++
		}
	}
	t.Logf("the last round's interval covered the truth %d times in 100", covered)
	if covered < 88 {
		t.Fatalf("the last round's interval covered the truth %d times in 100", covered)
	}
}

// TestRoundCoverage: every round's printed interval covers the truth at
// least 93 % of the time over 200 seeds, on two normal tables.
func TestRoundCoverage(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		n, blocks int
	}{{200_000, 8}, {1_000_000, 10}} {
		s, truth, err := workload.Normal(100, 20, tc.n, tc.blocks, 1)
		if err != nil {
			t.Fatal(err)
		}
		var covered [len(schedule)]int
		const seeds = 200
		for seed := uint64(1); seed <= seeds; seed++ {
			cfg := DefaultConfig()
			cfg.Seed = seed
			fp, err := LocalExecutor{S: s}.FreezePilot(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := timeBoundSession(local(s, cfg), cfg, fp)
			if err != nil {
				t.Fatal(err)
			}
			for r, f := range schedule {
				snap, err := sess.Refine(f)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(snap.Result.Estimate-truth) <= snap.Result.CI.HalfWidth {
					covered[r]++
				}
			}
		}
		t.Logf("%d rows in %d blocks: covered %v of %d", tc.n, tc.blocks, covered, seeds)
		for r, c := range covered {
			if float64(c) < 0.93*seeds {
				t.Errorf("%d rows in %d blocks, round %d: covered %d of %d", tc.n, tc.blocks, r+1, c, seeds)
			}
		}
	}
}

// TestPilotSpendsTheBudget pins that a pilot handed in by freeze — a
// plan-cache lookup that may freeze on a miss — runs on the budget's clock
// like one frozen here: Elapsed reports its time, and a pilot that overruns
// the budget leaves round 1 alone, which always finishes.
func TestPilotSpendsTheBudget(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 200000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Seed = 9
	fp, err := LocalExecutor{S: s}.FreezePilot(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const pilotTime = 50 * time.Millisecond
	slow := func(context.Context) (FrozenPilot, error) {
		time.Sleep(pilotTime)
		return fp, nil
	}
	res, err := EstimateTimeBound(ctx, local(s, cfg), cfg, 20*time.Millisecond, slow)
	if err != nil {
		t.Fatal(err)
	}
	want := replay(t, s, cfg, fp, 1)
	if res.Elapsed < pilotTime || !res.Truncated || res.Rounds != 1 ||
		!reflect.DeepEqual(res.Result, want.Result) {
		t.Fatalf("elapsed %v (pilot took %v), truncated %v after %d rounds, achieved %v (want round 1's %v)",
			res.Elapsed, pilotTime, res.Truncated, res.Rounds, res.CI.HalfWidth, want.Result.CI.HalfWidth)
	}
}

// hookBlock runs its store's hook on a block's first draw once the block has
// drawn st.after[block] values, and counts the draws any of the store's
// blocks are asked for after a hook returned.
type hookBlock struct {
	block.Block
	st *hookState
}

type hookState struct {
	mu    sync.Mutex
	after []int64 // per block: the draws before the hooked one
	drawn []int64
	hook  func() // nil: never fires
	woke  bool
	late  int64
}

func (b *hookBlock) SampleInto(r *stats.RNG, dst []float64) error {
	st, id := b.st, b.ID()
	st.mu.Lock()
	if st.woke {
		st.late += int64(len(dst))
	}
	fire := st.hook != nil && st.drawn[id] == st.after[id]
	st.drawn[id] += int64(len(dst))
	st.mu.Unlock()
	if fire {
		st.hook()
		st.mu.Lock()
		st.woke = true
		st.mu.Unlock()
	}
	return block.SampleInto(b.Block, r, dst)
}

// hookedStore wraps s's blocks so that every block runs hook on its first
// draw after after[i] draws.
func hookedStore(s *block.Store, after []int64, hook func()) (*block.Store, *hookState) {
	st := &hookState{after: after, drawn: make([]int64, s.NumBlocks()), hook: hook}
	blocks := make([]block.Block, s.NumBlocks())
	for i, b := range s.Blocks() {
		blocks[i] = &hookBlock{Block: b, st: st}
	}
	return block.NewStore(blocks...), st
}

// TestDeadlineKeepsLastRound is the one loop, replayed: a time-bound run
// that completes r rounds answers the bits of an online session built from
// the same frozen pilot and refined with the schedule's first r fractions —
// at one worker and at four, with the pilot frozen inside (no plan cache),
// by the freeze callback (a cache miss) or handed in (a hit). For r < 5
// every block sleeps past the deadline on its first draw of round r+1; that
// round is dropped, the run is truncated at r, and nothing is drawn after
// the sleep but what the workers had in hand — the run returns within a
// chunk of the deadline.
func TestDeadlineKeepsLastRound(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 200000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const budget = 100 * time.Millisecond
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Seed, cfg.Workers = 4, workers
		cfg.PilotSize = 400 // each block's probe, one draw call
		fp, err := LocalExecutor{S: s}.FreezePilot(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= len(schedule); r++ {
			want := replay(t, s, cfg, fp, r)
			for _, mode := range []string{"off", "cold", "warm"} {
				name := fmt.Sprintf("workers=%d rounds=%d cache %s", workers, r, mode)
				// The hook fires on round r+1's draw: after the pilot's
				// (drawn here unless handed in) and the first r rounds'.
				after := make([]int64, s.NumBlocks())
				for i, br := range want.PerBlock {
					after[i] = br.Samples
					if mode != "warm" {
						after[i] += cfg.PilotSize
					}
				}
				var deadline time.Time
				var hook func()
				if r < len(schedule) {
					hook = func() { time.Sleep(time.Until(deadline) + 5*time.Millisecond) }
				}
				hs, st := hookedStore(s, after, hook)
				var freeze func(context.Context) (FrozenPilot, error)
				switch mode {
				case "cold":
					freeze = func(ctx context.Context) (FrozenPilot, error) {
						return LocalExecutor{S: hs}.FreezePilot(ctx, cfg)
					}
				case "warm":
					freeze = given(fp)
				}
				deadline = time.Now().Add(budget)
				b := budget
				if r == len(schedule) {
					b = ample
				}
				res, err := EstimateTimeBound(ctx, local(hs, cfg), cfg, b, freeze)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Rounds != r || res.Truncated != (r < len(schedule)) ||
					!reflect.DeepEqual(res.Result, want.Result) {
					t.Fatalf("%s: %d rounds, truncated %v, %v ±%v over %d samples; the session: %v ±%v over %d",
						name, res.Rounds, res.Truncated, res.Estimate, res.CI.HalfWidth, res.TotalSamples,
						want.Result.Estimate, want.Result.CI.HalfWidth, want.Result.TotalSamples)
				}
				if st.late > int64(workers)*block.ChunkSize {
					t.Fatalf("%s: %d draws requested after the deadline, want at most a chunk per worker", name, st.late)
				}
			}
		}
	}
}

// TestCancelledCallerFails: the caller's own context ending mid-round fails
// the run with its error — it is not the deadline, so nothing is truncated —
// in round 1, which runs under the caller's context alone, and in round 2.
func TestCancelledCallerFails(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 200000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 4
	fp, err := LocalExecutor{S: s}.FreezePilot(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := range 2 {
		ctx, cancel := context.WithCancel(context.Background())
		after := make([]int64, s.NumBlocks())
		if r > 0 {
			for i, br := range replay(t, s, cfg, fp, r).PerBlock {
				after[i] = br.Samples
			}
		}
		hs, _ := hookedStore(s, after, cancel)
		_, err := EstimateTimeBound(ctx, local(hs, cfg), cfg, time.Second, given(fp))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled in round %d: returned %v, want context.Canceled", r+1, err)
		}
	}
}
