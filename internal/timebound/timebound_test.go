package timebound

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/stats"
	"isla/internal/workload"
)

func TestEstimateWithinBudget(t *testing.T) {
	s, truth, err := workload.Normal(100, 20, 300000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 3
	budget := 200 * time.Millisecond
	res, err := Estimate(context.Background(), s, cfg, budget, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The budget is advisory (calibration + derived size), but a 10x
	// overshoot would mean the calibration is broken.
	if res.Elapsed > 10*budget {
		t.Fatalf("elapsed %v far beyond budget %v", res.Elapsed, budget)
	}
	if res.AchievedPrecision <= 0 {
		t.Fatal("no achieved precision")
	}
	if res.SamplesPerSecond <= 0 {
		t.Fatal("no throughput estimate")
	}
	if math.Abs(res.Estimate-truth) > 5*res.AchievedPrecision {
		t.Fatalf("estimate %v vs truth %v beyond 5× achieved e=%v",
			res.Estimate, truth, res.AchievedPrecision)
	}
}

func TestLargerBudgetBuysTighterPrecision(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 500000, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 5
	small, err := Estimate(context.Background(), s, cfg, 50*time.Millisecond, Options{})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Estimate(context.Background(), s, cfg, 800*time.Millisecond, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// On fast hardware both budgets can afford a full scan (the sample size
	// caps at the store size), so the precisions saturate at the same
	// value, differing only by calibration noise — allow a hair of slack
	// while still catching a budget that buys meaningfully worse precision.
	if large.AchievedPrecision > small.AchievedPrecision*1.01 {
		t.Fatalf("larger budget bought worse precision: %v vs %v",
			large.AchievedPrecision, small.AchievedPrecision)
	}
	if large.TotalSamples < small.TotalSamples {
		t.Fatalf("larger budget drew fewer samples: %d vs %d",
			large.TotalSamples, small.TotalSamples)
	}
}

func TestEstimateValidation(t *testing.T) {
	s, _, _ := workload.Normal(100, 20, 1000, 2, 1)
	cfg := core.DefaultConfig()
	if _, err := Estimate(context.Background(), s, cfg, 0, Options{}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := Estimate(context.Background(), block.NewStore(), cfg, time.Second, Options{}); err == nil {
		t.Error("empty store accepted")
	}
}

// TestOptionsNormalization pins the calibration policy the constants fix: a
// tenth of the budget calibrates, the cutoff fires at 10× the budget, and the
// affordable size is 80 % of what the throughput buys in the remaining
// budget, never under 100 draws.
func TestOptionsNormalization(t *testing.T) {
	if calibrationFraction != 0.1 || cutoffFactor != 10 {
		t.Fatalf("calibration fraction %v, cutoff factor %v; want 0.1 and 10", calibrationFraction, cutoffFactor)
	}
	for _, tc := range []struct {
		throughput float64
		remaining  time.Duration
		want       int64
	}{
		{1e6, time.Second, 800_000},
		{1e6, time.Millisecond, 800},
		{1e6, 100 * time.Microsecond, 100},
		{1e9, -time.Millisecond, 100}, // calibration overran the budget
	} {
		if got := affordable(tc.throughput, tc.remaining); got != tc.want {
			t.Errorf("affordable(%v/s, %v) = %d, want %d", tc.throughput, tc.remaining, got, tc.want)
		}
	}
}

// given is a Freeze that hands back an already frozen pilot, as a plan-cache
// hit does.
func given(fp core.FrozenPilot) func(context.Context) (core.FrozenPilot, error) {
	return func(context.Context) (core.FrozenPilot, error) { return fp, nil }
}

// TestFrozenBranchGolden pins the one branch under FixedSamples, below the
// 3 200-draw pilot's cap: a frozen pilot handed in by the caller and one
// frozen here (with and without variance-aware rates) keep their bits. The
// given pilot is frozen at another seed, so its leg can only match if the
// run resumes that pilot instead of freezing its own.
func TestFrozenBranchGolden(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 200000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := core.DefaultConfig()
	cfg.Seed = 9
	other := cfg
	other.Seed = 10
	fp, err := core.LocalExecutor{S: s}.FreezePilot(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	varAware := cfg
	varAware.VarianceAwareRates = true
	for _, leg := range []struct {
		name                string
		cfg                 core.Config
		opts                Options
		est, sum, halfWidth uint64 // the half-width is the achieved precision
		samples             int64
	}{
		{"given pilot", cfg, Options{FixedSamples: 2000, Freeze: given(fp)},
			0x4059135bdf6b5efc, 0x4173219507e49ae8, 0x3feae9ada2509f05, 2000},
		{"frozen here", cfg, Options{FixedSamples: 2000},
			0x4058f5ddf44d0ff8, 0x41730b14e6730b3f, 0x3fec659e7b01820a, 2000},
		{"variance-aware", varAware, Options{FixedSamples: 2000},
			0x4058f1e40f346372, 0x4173080c4ed9a81f, 0x3fec659e7b01820a, 1996},
	} {
		res, err := Estimate(ctx, s, leg.cfg, time.Second, leg.opts)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if math.Float64bits(res.Estimate) != leg.est || math.Float64bits(res.Sum) != leg.sum ||
			math.Float64bits(res.CI.HalfWidth) != leg.halfWidth || math.Float64bits(res.AchievedPrecision) != leg.halfWidth ||
			res.TotalSamples != leg.samples || res.CoveredBlocks != 8 || res.Truncated {
			t.Errorf("%s: estimate %#016x sum %#016x half-width %#016x achieved %#016x samples %d covered %d truncated %v",
				leg.name, math.Float64bits(res.Estimate), math.Float64bits(res.Sum), math.Float64bits(res.CI.HalfWidth),
				math.Float64bits(res.AchievedPrecision), res.TotalSamples, res.CoveredBlocks, res.Truncated)
		}
	}
}

// TestPilotCapsPrecision pins the pilot cap: a run draws what it affords up
// to the pilot's own draws and never prints a finer precision than those
// support, however large the budget — and that printed precision holds: over
// 100 seeds of a budget that affords the whole table, the interval covers
// the truth at least as often as a 0.95 binomial floor allows (88 of 100).
func TestPilotCapsPrecision(t *testing.T) {
	s, truth, err := workload.Normal(100, 20, 200000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := core.DefaultConfig()
	u, err := stats.ZValue(cfg.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for seed := uint64(1); seed <= 100; seed++ {
		cfg.Seed = seed
		for _, fixed := range []int64{2000, 1 << 40} {
			res, err := Estimate(ctx, s, cfg, time.Second, Options{FixedSamples: fixed})
			if err != nil {
				t.Fatal(err)
			}
			n := min(fixed, res.Pilot.PilotSize)
			if want := u * res.Pilot.Sigma / math.Sqrt(float64(n)); res.AchievedPrecision != want ||
				res.TotalSamples > n || res.SamplesPerSecond != 0 {
				t.Fatalf("seed %d, %d affordable: achieved %v (want %v), %d samples (pilot %d), %v samples/s",
					seed, fixed, res.AchievedPrecision, want, res.TotalSamples, res.Pilot.PilotSize, res.SamplesPerSecond)
			}
			if fixed > n && math.Abs(res.Estimate-truth) <= res.AchievedPrecision {
				covered++
			}
		}
	}
	if covered < 88 {
		t.Fatalf("pilot-capped interval covered the truth %d times in 100", covered)
	}
}

// TestPilotSpendsTheBudget pins that a pilot handed in through Freeze — a
// plan-cache lookup that may freeze on a miss — runs on the budget's clock
// like one frozen here: Elapsed reports its time, and a pilot that overruns
// the budget leaves only the minimum draw affordable.
func TestPilotSpendsTheBudget(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 200000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := core.DefaultConfig()
	cfg.Seed = 9
	fp, err := core.LocalExecutor{S: s}.FreezePilot(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const pilotTime = 50 * time.Millisecond
	slow := func(context.Context) (core.FrozenPilot, error) {
		time.Sleep(pilotTime)
		return fp, nil
	}
	res, err := Estimate(ctx, s, cfg, 20*time.Millisecond, Options{Freeze: slow})
	if err != nil {
		t.Fatal(err)
	}
	u, err := stats.ZValue(cfg.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	if want := u * fp.Base.Sigma / math.Sqrt(minSamples); res.Elapsed < pilotTime || res.AchievedPrecision != want {
		t.Fatalf("elapsed %v (pilot took %v), achieved %v (want the %d-draw floor's %v)",
			res.Elapsed, pilotTime, res.AchievedPrecision, minSamples, want)
	}
}

// hookBlock runs its store's hook on its first draw once the hook is set —
// which the tests do when the calculation phase starts — and counts the
// draws any of the store's blocks are asked for after that.
type hookBlock struct {
	block.Block
	st *hookState
}

type hookState struct {
	hook  func() // set by the Freeze that starts the calculation phase
	slow  int    // the block whose draw runs it
	fired bool
	late  int64
}

func (b *hookBlock) SampleInto(r *stats.RNG, dst []float64) error {
	if b.st.fired {
		b.st.late += int64(len(dst))
	}
	if b.st.hook != nil && !b.st.fired && b.ID() == b.st.slow {
		b.st.fired = true
		b.st.hook()
	}
	return block.SampleInto(b.Block, r, dst)
}

// hooked runs Estimate over four 50 000-row blocks, each drawing three chunks
// in the calculation phase — FixedSamples affords the pilot's whole 3-chunk
// probes, however slowly a loaded machine samples, so every block has chunk
// boundaries to stop at — whose block slow runs hook(cutoff) on its first
// calculation draw, the hard cutoff being no later than that, and returns
// the result and the draws requested after the hook.
func hooked(t *testing.T, ctx context.Context, budget time.Duration, slow int, hook func(cutoff time.Time)) (Result, int64, error) {
	t.Helper()
	s, _, err := workload.Normal(100, 20, 200000, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	st := &hookState{slow: slow}
	blocks := make([]block.Block, s.NumBlocks())
	for i, b := range s.Blocks() {
		blocks[i] = &hookBlock{Block: b, st: st}
	}
	store := block.NewStore(blocks...)
	cfg := core.DefaultConfig()
	cfg.Seed = 4
	cfg.PilotSize = 3 * block.ChunkSize
	fp, err := core.LocalExecutor{S: store}.FreezePilot(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	freeze := func(context.Context) (core.FrozenPilot, error) {
		// The budget's clock started before calibration, so the cutoff is
		// no later than this.
		cutoff := time.Now().Add(cutoffFactor * budget)
		st.hook = func() { hook(cutoff) }
		return fp, nil
	}
	res, err := Estimate(ctx, store, cfg, budget, Options{FixedSamples: 1 << 40, Freeze: freeze})
	return res, st.late, err
}

// TestCutoffMidPhaseKeepsPrefix: the hard cutoff fires while a block draws.
// The first block resolves whatever the clock says — every chunk of its plan
// even when the cutoff fires during its first — and the answer covers a
// strict prefix of the blocks. Past the first block, nothing is drawn after
// the chunk in flight: the run returns within a chunk of the cutoff.
func TestCutoffMidPhaseKeepsPrefix(t *testing.T) {
	for _, slow := range []int{0, 1} {
		res, late, err := hooked(t, context.Background(), 30*time.Millisecond, slow, func(cutoff time.Time) {
			// Return only once the phase's deadline has passed, so the
			// draw's next chunk boundary finds it expired.
			for time.Now().Before(cutoff) {
				time.Sleep(time.Until(cutoff))
			}
		})
		if err != nil {
			t.Fatalf("cutoff during block %d: %v", slow, err)
		}
		if !res.Truncated || res.CoveredBlocks != 1 {
			t.Fatalf("cutoff during block %d: truncated %v, %d of 4 blocks covered; want the first alone",
				slow, res.Truncated, res.CoveredBlocks)
		}
		planned := max(1, int64(res.Pilot.SampleRate*float64(res.PerBlock[0].Len)))
		if first := res.PerBlock[0].Samples; first != planned || res.TotalSamples != first {
			t.Fatalf("cutoff during block %d: the first block drew %d of its %d samples, the run %d",
				slow, first, planned, res.TotalSamples)
		}
		if slow > 0 && late > block.ChunkSize {
			t.Fatalf("%d draws requested after the cutoff, want at most one chunk (%d)", late, block.ChunkSize)
		}
	}
}

// TestCancelledCallerFails: the caller's own context ending mid-phase fails
// the run with its error — it is not a cutoff, so nothing is truncated.
func TestCancelledCallerFails(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, err := hooked(t, ctx, time.Second, 1, func(time.Time) { cancel() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestCacheStateInvariance is the determinism contract's time-bound leg,
// under FixedSamples: a frozen pilot handed in (a plan-cache hit) and one
// frozen inside (no cache) give the same result at every worker count, and
// an untruncated run is EstimateFrozen at the precision it derived.
func TestCacheStateInvariance(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 200000, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var ref *Result
	for _, workers := range []int{0, 4} {
		cfg := core.DefaultConfig()
		cfg.Seed = 9
		cfg.Workers = workers
		ex := core.LocalExecutor{S: s}
		fp, err := ex.FreezePilot(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		inside, err := Estimate(ctx, s, cfg, time.Second, Options{FixedSamples: 20000})
		if err != nil {
			t.Fatal(err)
		}
		given, err := Estimate(ctx, s, cfg, time.Second, Options{FixedSamples: 20000, Freeze: given(fp)})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Precision = inside.AchievedPrecision
		direct, err := ex.EstimateFrozen(ctx, cfg, fp)
		if err != nil {
			t.Fatal(err)
		}
		if inside.Truncated || inside.CoveredBlocks != s.NumBlocks() {
			t.Fatalf("workers=%d: truncated %v, %d blocks covered", workers, inside.Truncated, inside.CoveredBlocks)
		}
		for _, leg := range []struct {
			name string
			res  core.Result
		}{{"given pilot", given.Result}, {"EstimateFrozen", direct}} {
			if !reflect.DeepEqual(leg.res, inside.Result) {
				t.Fatalf("workers=%d: %s %+v, frozen inside %+v", workers, leg.name, leg.res, inside.Result)
			}
		}
		if given.AchievedPrecision != inside.AchievedPrecision {
			t.Fatalf("workers=%d: achieved precision %v vs %v", workers, given.AchievedPrecision, inside.AchievedPrecision)
		}
		if ref == nil {
			ref = &inside
		} else if !reflect.DeepEqual(inside.Result, ref.Result) {
			t.Fatalf("workers=%d moved the answer", workers)
		}
	}
}
