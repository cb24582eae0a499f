package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// settledGoroutines waits for the goroutine count to fall to at most want —
// a worker that has signalled its exit may still be unwinding — and returns
// the count it settled at.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunLeavesNoGoroutine: the calling goroutine is one of the workers and
// Run waits for the others, so after a run that succeeds, one that a task
// fails and one cancelled mid-run, the goroutine count is back at its
// baseline.
func TestRunLeavesNoGoroutine(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"success", func() error {
			_, err := Run(context.Background(), 4, 64, func(_ context.Context, i int) (int, error) {
				runtime.Gosched()
				return i, nil
			})
			return err
		}},
		{"task failure", func() error {
			_, err := Run(context.Background(), 4, 64, func(ctx context.Context, i int) (int, error) {
				if i == 7 {
					return 0, boom
				}
				if i > 7 {
					<-ctx.Done()
				}
				return i, nil
			})
			if !errors.Is(err, boom) {
				t.Errorf("task failure: got %v, want boom", err)
			}
			return nil
		}},
		{"cancel mid-run", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := Run(ctx, 4, 64, func(c context.Context, i int) (int, error) {
				if i == 10 {
					cancel()
				}
				if i > 10 {
					<-c.Done()
				}
				return i, nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancel mid-run: got %v, want context.Canceled", err)
			}
			return nil
		}},
	} {
		base := settledGoroutines(runtime.NumGoroutine())
		for range 20 {
			if err := tc.run(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if got := settledGoroutines(base); got > base {
			t.Errorf("%s: %d goroutines after 20 runs, %d before", tc.name, got, base)
		}
	}
}

// TestRunIntoWritesInPlace: RunInto fills the caller's slice — a recycled
// one keeps its array — and reports the completed prefix on failure.
func TestRunIntoWritesInPlace(t *testing.T) {
	out := make([]int, 32)
	for _, workers := range []int{1, 4} {
		n, err := RunInto(context.Background(), workers, out, func(_ context.Context, i int) (int, error) {
			return 3 * i, nil
		})
		if err != nil || n != len(out) {
			t.Fatalf("workers=%d: %d results, err %v", workers, n, err)
		}
		for i, v := range out {
			if v != 3*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		boom := errors.New("boom")
		n, err = RunInto(context.Background(), workers, out, func(ctx context.Context, i int) (int, error) {
			if i == 9 {
				return 0, boom
			}
			if i > 9 {
				<-ctx.Done()
			}
			return i, nil
		})
		if !errors.Is(err, boom) || n != 9 {
			t.Fatalf("workers=%d: prefix %d, err %v; want 9 and boom", workers, n, err)
		}
		for i, v := range out[:n] {
			if v != i {
				t.Fatalf("workers=%d: out[%d] = %d after the failed run", workers, i, v)
			}
		}
	}
}
