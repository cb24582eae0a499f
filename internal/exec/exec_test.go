package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"isla/internal/stats"
)

func TestRunDeliversInTaskOrder(t *testing.T) {
	const n = 64
	// Make late tasks finish first so ordering must come from the
	// collector, not from completion timing.
	results, err := Run(context.Background(), 8, n, func(_ context.Context, i int) (int, error) {
		time.Sleep(time.Duration(n-i) * time.Microsecond)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, v := range results {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunSinksSeeOrderedPrefix(t *testing.T) {
	const n = 32
	var seen []int
	_, err := Run(context.Background(), 4, n,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(i int, v int) error {
			if i != v {
				t.Errorf("sink index %d carries value %d", i, v)
			}
			seen = append(seen, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("sink saw %d results, want %d", len(seen), n)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("sink call %d was index %d; delivery is unordered", i, v)
		}
	}
}

func TestRunResultsIdenticalAcrossWorkerCounts(t *testing.T) {
	const n = 40
	fn := func(_ context.Context, i int) (uint64, error) {
		// A task whose answer depends only on its derived seed.
		return stats.NewRNG(uint64(i) + 7).Uint64(), nil
	}
	base, err := Run(context.Background(), 1, n, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, runtime.NumCPU()} {
		got, err := Run(context.Background(), w, n, fn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", w, i, got[i], base[i])
			}
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		_, err := Run(ctx, 4, 100, func(c context.Context, i int) (int, error) {
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			<-c.Done() // block until cancelled
			return 0, c.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("got %v, want context.Canceled", err)
		}
	}()
	<-started
	cancel()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

func TestRunTaskErrorAbortsWithPrefix(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	// Tasks behind the failing one hold their worker until Run cancels the
	// run's context, which it does only once task 5's failure is recorded
	// and has stopped dispatch. Free-running tasks left that to the
	// scheduler: three workers could drain all hundred before the one
	// holding task 5 ran (about 3 % of runs on two CPUs).
	results, err := Run(context.Background(), 4, 100, func(ctx context.Context, i int) (int, error) {
		calls.Add(1)
		if i == 5 {
			return 0, fmt.Errorf("task 5: %w", boom)
		}
		if i > 5 {
			<-ctx.Done()
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped boom", err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d delivered results, want the 5 before the failure", len(results))
	}
	for i, v := range results {
		if v != i {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
	if calls.Load() == 100 {
		t.Error("error did not stop dispatch")
	}
	// Tasks 0–5 plus at most one held task per other worker.
	if got := calls.Load(); got > 9 {
		t.Errorf("%d tasks ran after a failure at task 5 with 4 workers, want at most 9", got)
	}
}

func TestRunSinkErrorAborts(t *testing.T) {
	stop := errors.New("stop")
	results, err := Run(context.Background(), 2, 50,
		func(_ context.Context, i int) (int, error) { return i, nil },
		func(i int, _ int) error {
			if i == 3 {
				return stop
			}
			return nil
		})
	if !errors.Is(err, stop) {
		t.Fatalf("got %v, want stop", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
}

func TestBudgetSinkCutsOff(t *testing.T) {
	deadline := time.Now().Add(20 * time.Millisecond)
	results, err := Run(context.Background(), 1, 1000,
		func(_ context.Context, i int) (int, error) {
			time.Sleep(time.Millisecond)
			return i, nil
		},
		Budget[int](deadline, 1))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	if len(results) == 0 || len(results) == 1000 {
		t.Fatalf("got %d results, want a non-trivial prefix", len(results))
	}
}

func TestBudgetSinkAlwaysDeliversMinimum(t *testing.T) {
	// A deadline already in the past still lets minResults through.
	deadline := time.Now().Add(-time.Second)
	results, err := Run(context.Background(), 2, 10,
		func(_ context.Context, i int) (int, error) { return i, nil },
		Budget[int](deadline, 3))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want the guaranteed 3", len(results))
	}
}

func TestRunEmptyAndClamp(t *testing.T) {
	results, err := Run(context.Background(), 8, 0, func(_ context.Context, i int) (int, error) {
		return i, nil
	})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty run: %v results, err %v", len(results), err)
	}
	// workers > n and workers < 1 must both work.
	for _, w := range []int{-3, 0, 99} {
		results, err = Run(context.Background(), w, 3, func(_ context.Context, i int) (int, error) {
			return i, nil
		})
		if err != nil || len(results) != 3 {
			t.Fatalf("workers=%d: %v results, err %v", w, len(results), err)
		}
	}
}

func TestPool(t *testing.T) {
	if got := Pool(0); got != 1 {
		t.Errorf("Pool(0) = %d, want 1", got)
	}
	if got := Pool(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Pool(-1) = %d, want GOMAXPROCS", got)
	}
	if got := Pool(7); got != 7 {
		t.Errorf("Pool(7) = %d, want 7", got)
	}
}

func TestSeedsMatchSequentialSplit(t *testing.T) {
	const n = 16
	parent := stats.NewRNG(42)
	seeds := Seeds(parent, n)

	// The reference discipline: one Split per task, sequentially.
	ref := stats.NewRNG(42)
	for i := 0; i < n; i++ {
		want := ref.Split()
		got := stats.NewRNG(seeds[i])
		for k := 0; k < 8; k++ {
			a, b := got.Uint64(), want.Uint64()
			if a != b {
				t.Fatalf("seed %d diverges from sequential Split at draw %d", i, k)
			}
		}
	}
	// And the parent generators end in the same state.
	if parent.Uint64() != ref.Uint64() {
		t.Fatal("parent RNG state diverged")
	}
}
