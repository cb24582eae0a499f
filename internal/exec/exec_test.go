package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
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

// goroutineID parses the current goroutine's number out of its stack
// header; the tests use it only to count the goroutines tasks ran on.
func goroutineID() string {
	buf := make([]byte, 64)
	fields := strings.Fields(string(buf[:runtime.Stack(buf, false)]))
	return fields[1] // "goroutine 18 [running]:"
}

// TestRunUsesExactlyTheWorkersAsked: the first `workers` tasks wait for one
// another, so fewer workers than asked for would hang the run, and a
// running count catches more.
func TestRunUsesExactlyTheWorkersAsked(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		const n = 200
		var running, peak, arrived atomic.Int64
		all := make(chan struct{})
		var ids sync.Map
		_, err := Run(context.Background(), workers, n, func(_ context.Context, i int) (int, error) {
			now := running.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			ids.Store(goroutineID(), true)
			if i < workers {
				if arrived.Add(1) == int64(workers) {
					close(all)
				}
				select {
				case <-all:
				case <-time.After(10 * time.Second):
					t.Errorf("workers=%d: task %d waited 10 s for %d tasks to run at once", workers, i, workers)
				}
			}
			runtime.Gosched()
			running.Add(-1)
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got != int64(workers) {
			t.Errorf("workers=%d: %d tasks ran at once", workers, got)
		}
		goroutines := 0
		ids.Range(func(_, _ any) bool { goroutines++; return true })
		if goroutines != workers {
			t.Errorf("workers=%d: tasks ran on %d goroutines", workers, goroutines)
		}
	}
}

// TestRunCancelMidRun cancels the caller's context during task 20: nothing
// starts after the tasks running then, and what is returned is an in-order
// prefix with the context's error. A task claimed before the cancellation
// but not yet started counts as cancelled, so with several workers the
// prefix may end before task 20; with one it is exactly tasks 0–20.
func TestRunCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		results, err := Run(ctx, workers, 100, func(c context.Context, i int) (int, error) {
			calls.Add(1)
			if i == 20 {
				cancel()
			}
			if i > 20 {
				<-c.Done() // started before the cancellation, finishes after it
			}
			return i, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if len(results) > 20+workers || (workers == 1 && len(results) != 21) {
			t.Errorf("workers=%d: %d results", workers, len(results))
		}
		if got := calls.Load(); got > int64(20+workers) {
			t.Errorf("workers=%d: %d tasks ran, cancellation came during task 20", workers, got)
		}
		for i, v := range results {
			if v != i {
				t.Fatalf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
	}
}

// TestRunFirstFailureInTaskOrderWins: tasks 3 and 9 both fail, 9 first.
func TestRunFirstFailureInTaskOrderWins(t *testing.T) {
	err3, err9 := errors.New("three"), errors.New("nine")
	nineFailed := make(chan struct{})
	results, err := Run(context.Background(), 12, 12, func(_ context.Context, i int) (int, error) {
		switch i {
		case 9:
			defer close(nineFailed)
			return 0, err9
		case 3:
			<-nineFailed
			return 0, err3
		}
		return i, nil
	})
	if !errors.Is(err, err3) || len(results) != 3 {
		t.Fatalf("got %d results and %v, want 3 and the failure of task 3", len(results), err)
	}
}

var benchSink uint64

// spin is a task of n dependent multiplies, about 1.4 ns each.
func spin(seed uint64, n int) uint64 {
	x := seed
	for j := 0; j < n; j++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// BenchmarkRunSmallPhase is one phase of a small query: 16 tasks of about a
// microsecond (a pilot probe) or about twenty (a block's draw and its
// Algorithm 2), on one worker per CPU. Run it at -cpu 1,2: at these sizes
// what Run adds — goroutines started, woken and waited for — is comparable
// to the work itself.
func BenchmarkRunSmallPhase(b *testing.B) {
	for _, bc := range []struct {
		name  string
		steps int
	}{{"1us", 700}, {"20us", 14000}} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			workers := Pool(-1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := Run(ctx, workers, 16, func(_ context.Context, k int) (uint64, error) {
					return spin(uint64(i+k), bc.steps), nil
				})
				if err != nil {
					b.Fatal(err)
				}
				benchSink += out[15]
			}
		})
	}
}

// overdueCtx is a context at the instant its deadline has passed and the
// runtime timer that would cancel it has not yet run.
type overdueCtx struct{ context.Context }

func (overdueCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestRunStopsAtOverdueDeadline: a deadline is honoured by the clock, not by
// the context's timer — past it, no task is claimed, at any worker count.
func TestRunStopsAtOverdueDeadline(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		n, err := RunInto(overdueCtx{context.Background()}, workers, make([]int, 16), func(context.Context, int) (int, error) {
			ran.Add(1)
			return 0, nil
		})
		if !errors.Is(err, context.DeadlineExceeded) || n != 0 || ran.Load() != 0 {
			t.Fatalf("workers=%d: %d tasks ran, prefix %d, err %v; want none and the deadline", workers, ran.Load(), n, err)
		}
	}
}
