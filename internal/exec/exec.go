// Package exec is the worker pool behind every ISLA execution mode. The
// paper's pipeline — pre-estimate, freeze a plan, run the Calculation phase
// per block, merge — is the same in batch, parallel, online, time-bounded
// and cluster deployments: each phase is one Run over its per-block tasks,
// with
//
//   - deterministic dispatch: callers derive every task's seed (or RNG start
//     state) in task order BEFORE Run dispatches anything, so the answer is
//     bit-identical for every worker count;
//   - ordered results: Run returns them in task order regardless of
//     completion order, and on failure the in-order prefix that completed;
//   - context cancellation: the run aborts promptly when the caller's
//     context is cancelled or any task fails.
//
// What differs between modes is what a phase asks for (online rounds carry
// the sums of earlier rounds, a time-bounded run sets a deadline), not the
// loop that runs it.
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Func computes the result of task i. Implementations that can block for
// long periods should honor ctx so cancellation stays prompt.
type Func[T any] func(ctx context.Context, i int) (T, error)

// Pool normalizes a Config-style worker knob: 0 selects sequential
// execution (one worker), negative selects one worker per CPU, positive is
// taken as-is.
func Pool(w int) int {
	switch {
	case w == 0:
		return 1
	case w < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return w
	}
}

// item is one task outcome in flight from a worker to the collector.
type item[T any] struct {
	i   int
	v   T
	err error
}

// Run executes tasks 0..n-1 over a pool of workers and returns their
// results in task order. workers is clamped to [1, n].
//
// On any task error or context cancellation the run stops early and Run
// returns the in-order prefix of results that completed before the first
// failure in task order, together with that failure. A nil error
// guarantees exactly n results.
func Run[T any](ctx context.Context, workers, n int, fn Func[T]) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// One worker is the calling goroutine: same order and cancellation,
		// without a goroutine hand-off per task.
		out := make([]T, 0, n)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return out, err
			}
			out = append(out, v)
		}
		return out, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Workers claim the next task index themselves, and done holds every
	// outcome, so a worker never waits for a feeder or for the collector.
	// A failed task stops further claims at once; tasks already running
	// finish undisturbed, so the collector still reports the first failure
	// in task order.
	var claimed atomic.Int64
	var failed atomic.Bool
	done := make(chan item[T], n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(claimed.Add(1)) - 1
				if i >= n {
					return
				}
				if err := cctx.Err(); err != nil {
					done <- item[T]{i: i, err: err}
					return
				}
				v, err := fn(cctx, i)
				if err != nil {
					failed.Store(true)
				}
				done <- item[T]{i: i, v: v, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// Collect out of completion order, keep in task order.
	out := make([]T, 0, n)
	pending := make(map[int]item[T])
	for it := range done {
		pending[it.i] = it
		for {
			cur, ok := pending[len(out)]
			if !ok {
				break
			}
			delete(pending, len(out))
			if cur.err != nil {
				cancel()
				for range done { // drain so workers can exit
				}
				return out, cur.err
			}
			out = append(out, cur.v)
		}
	}
	return out, nil
}
