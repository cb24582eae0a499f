// Package exec is the unified execution runtime behind every ISLA
// execution mode. The paper's pipeline — pre-estimate, freeze a plan,
// run the Calculation phase per block, merge — is the same in batch,
// parallel, online, time-bounded and cluster deployments; only the
// scheduling and the consumption of per-block results differ. This
// package owns that common part: a worker-pool scheduler with
//
//   - deterministic per-task seed derivation (Seeds): all seeds are drawn
//     from the parent RNG in task order BEFORE any task is dispatched, so
//     the answer is bit-identical for every worker count;
//   - ordered result delivery: results surface in task order regardless
//     of completion order, through pluggable sinks (final merge, per-round
//     snapshots, wall-clock budget cutoff);
//   - context cancellation: the run aborts promptly when the caller's
//     context is cancelled or any task or sink fails.
//
// Adding a new execution scenario means writing a sink, not a new loop.
package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"isla/internal/stats"
)

// Func computes the result of task i. Implementations that can block for
// long periods should honor ctx so cancellation stays prompt.
type Func[T any] func(ctx context.Context, i int) (T, error)

// Sink observes completed results strictly in task order, from a single
// goroutine. Returning a non-nil error aborts the run: in-flight tasks are
// cancelled and Run returns the results delivered so far with that error.
type Sink[T any] func(i int, v T) error

// ErrBudgetExceeded aborts a run whose wall-clock budget ran out; see
// Budget.
var ErrBudgetExceeded = errors.New("exec: wall-clock budget exceeded")

// Budget returns a sink that aborts the run with ErrBudgetExceeded once
// deadline has passed. Results delivered before the cutoff are kept, so the
// caller can merge a best-effort prefix; the first minResults results are
// always delivered so that prefix is never empty.
func Budget[T any](deadline time.Time, minResults int) Sink[T] {
	return func(i int, _ T) error {
		if i < minResults {
			return nil
		}
		if time.Now().After(deadline) {
			return ErrBudgetExceeded
		}
		return nil
	}
}

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

// Seeds derives n per-task RNG seeds by drawing from the parent generator
// in task order — the same stream as calling (*stats.RNG).Split once per
// task sequentially. Deriving every seed before dispatch is what makes a
// concurrent run bit-identical to the sequential one.
func Seeds(r *stats.RNG, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	return seeds
}

// item is one task outcome in flight from a worker to the collector.
type item[T any] struct {
	i   int
	v   T
	err error
}

// Run executes tasks 0..n-1 over a pool of workers and returns their
// results in task order. workers is clamped to [1, n]. Sinks observe each
// result in task order as soon as it (and all its predecessors) completed.
//
// On any task error, sink error or context cancellation the run stops
// early and Run returns the in-order prefix of results delivered to the
// sinks so far, together with the error. A nil error guarantees exactly n
// results.
func Run[T any](ctx context.Context, workers, n int, fn Func[T], sinks ...Sink[T]) ([]T, error) {
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
		// One worker is the calling goroutine: same order, sinks and
		// cancellation, without a goroutine hand-off per task.
		out := make([]T, 0, n)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return out, err
			}
			for _, s := range sinks {
				if err := s(i, v); err != nil {
					return out, err
				}
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

	// Collect out of completion order, deliver in task order.
	out := make([]T, 0, n)
	pending := make(map[int]item[T])
	next := 0
	var runErr error
	for it := range done {
		pending[it.i] = it
		for runErr == nil {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if cur.err != nil {
				runErr = cur.err
				break
			}
			for _, s := range sinks {
				if err := s(next, cur.v); err != nil {
					runErr = err
					break
				}
			}
			if runErr != nil {
				break
			}
			out = append(out, cur.v)
			next++
		}
		if runErr != nil {
			cancel()
			for range done { // drain so workers can exit
			}
			return out, runErr
		}
	}
	return out, nil
}
