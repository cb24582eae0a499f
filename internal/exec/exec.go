// Package exec is the worker pool behind every ISLA execution mode. The
// paper's pipeline — pre-estimate, freeze a plan, run the Calculation phase
// per block, merge — is the same in batch, parallel, online, time-bounded
// and cluster deployments: each phase is one Run over its per-block tasks,
// with
//
//   - deterministic dispatch: callers derive every task's seed (or RNG start
//     state) in task order BEFORE Run dispatches anything, so the answer is
//     bit-identical for every worker count;
//   - ordered results in place: task i writes its result into slot i of the
//     slice Run returns, so there is no collector, no channel and no
//     reordering — and RunInto lets a caller recycle that slice across
//     phases, so a phase allocates nothing per task;
//   - context cancellation: the run aborts promptly when the caller's
//     context is cancelled, its deadline passes by the clock, or any task
//     fails, and on failure returns the in-order prefix that completed.
//
// The calling goroutine is one of the workers, and every worker has
// returned before Run does: no goroutine outlives a phase.
//
// What differs between modes is what a phase asks for (online rounds carry
// the sums of earlier rounds, a time-bounded run sets a deadline), not the
// loop that runs it.
package exec

import (
	"context"
	"runtime"
	"sync"
	"time"
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
	out := make([]T, n)
	k, err := RunInto(ctx, workers, out, fn)
	return out[:k], err
}

// RunInto is Run over len(out) tasks writing task i's result into out[i]. It
// returns the length of the in-order prefix of out that holds results — all
// of it unless err is non-nil — and Run's error; entries past the prefix are
// unspecified.
func RunInto[T any](ctx context.Context, workers int, out []T, fn Func[T]) (int, error) {
	n := len(out)
	if n == 0 {
		return 0, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = min(max(workers, 1), n)
	if workers == 1 {
		// One worker is the calling goroutine alone.
		for i := range out {
			if err := live(ctx); err != nil {
				return i, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return i, err
			}
			out[i] = v
		}
		return n, nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	s := &sched[T]{ctx: cctx, cancel: cancel, out: out, fn: fn, failed: n, running: make([]int, workers)}
	s.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer s.wg.Done()
			s.work(w)
		}()
	}
	s.work(0)
	s.wg.Wait()
	return s.failed, s.err
}

// live is ctx.Err(), or context.DeadlineExceeded once ctx's deadline has
// passed by the clock: a context learns of its deadline from a runtime timer,
// which a loaded process fires milliseconds late, and a task claimed in
// between would run whole.
func live(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// sched is one parallel RunInto's shared state. Workers claim the next task
// index themselves and write its result in place, so no worker ever waits
// for another. Claims and completions take mu: a task is a block's worth of
// work, beside which one uncontended lock is noise.
type sched[T any] struct {
	ctx    context.Context
	cancel context.CancelFunc
	out    []T
	fn     Func[T]
	wg     sync.WaitGroup // the workers besides the caller

	mu   sync.Mutex
	next int // the next task to claim
	// failed is the first failed task in task order (len(out) while none
	// has) and err its failure. A failure stops further claims at once.
	failed int
	err    error
	// running[w] is 1 + the task worker w is running, 0 while it runs none.
	running []int
}

// work is worker w's loop: claim a task, run it unless the run is already
// cancelled, record a failure, repeat until no task is left or one failed.
func (s *sched[T]) work(w int) {
	n := len(s.out)
	for i, err := -1, error(nil); ; {
		s.mu.Lock()
		if i >= 0 {
			s.running[w] = 0
			if err != nil && i < s.failed {
				s.failed, s.err = i, err
			}
		}
		if s.failed < n || s.next == n {
			s.cancelPast()
			s.mu.Unlock()
			return
		}
		i = s.next
		s.next++
		s.running[w] = i + 1
		s.mu.Unlock()
		if err = live(s.ctx); err == nil {
			s.out[i], err = s.fn(s.ctx, i)
		}
	}
}

// cancelPast cancels the run's context once a failure is recorded and no
// task before it is still running: tasks past the first failure stop
// promptly, while those before it finish undisturbed, so the failure
// reported is the first in task order. Called with mu held.
func (s *sched[T]) cancelPast() {
	if s.failed == len(s.out) {
		return
	}
	for _, r := range s.running {
		if r > 0 && r-1 < s.failed {
			return
		}
	}
	s.cancel()
}
