package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"isla/internal/core"
)

// Config tunes the coordinator's fault-tolerance layer: per-call deadlines,
// transient-failure retries, replica failover and graceful degradation.
// The zero value selects the package defaults; negative values disable the
// corresponding mechanism where that is meaningful.
//
// None of these knobs can move an answer bit: per-block RNG seeds are
// derived from the query seed in block order before any RPC is dispatched,
// and replicas hold identical block data, so a retried or failed-over call
// recomputes exactly the power sums the first attempt would have returned.
type Config struct {
	// CallTimeout is the per-RPC deadline. A call that does not complete
	// within it fails with a transient timeout error, and the underlying
	// connection is closed (a hung net/rpc connection would stall every
	// call multiplexed on it). Zero selects 15s; negative disables the
	// deadline.
	CallTimeout time.Duration
	// MaxRetries is how many times a transiently failing call is retried
	// on the same worker before that worker is marked unhealthy and the
	// block fails over to the next replica. Zero selects 2; negative
	// disables same-worker retries (failover still applies).
	MaxRetries int
	// BaseBackoff is the first retry's backoff; attempt k waits
	// min(BaseBackoff<<k, MaxBackoff) scaled into [1/2, 1) by a
	// deterministic jitter keyed on (query seed, block, replica, attempt),
	// so retry schedules replay identically and never synchronize into a
	// thundering herd. Zero selects 25ms; negative disables backoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Zero selects 2s.
	MaxBackoff time.Duration
	// RetryBudget caps the total number of backoff retries one query may
	// spend across all of its calls — a circuit breaker against retry
	// storms when a worker is sick rather than blipping. Once exhausted,
	// calls get a single attempt per replica. Zero selects 64; negative
	// removes the cap.
	RetryBudget int
	// ProbeInterval is the cadence of background health probes
	// (Worker.Info as ping) against unhealthy workers; a worker is
	// readmitted only after a probe succeeds. Zero selects 500ms;
	// negative disables background reconnection (the worker stays out
	// until the coordinator is rebuilt).
	ProbeInterval time.Duration
	// AllowPartial degrades instead of failing when a block has no live
	// replica: the query answers over the reachable fraction and reports
	// the loss in Result.Partial (missing blocks, covered/total rows).
	// When false (default), losing a block fails the query with a
	// *BlocksLostError naming the lost blocks.
	AllowPartial bool
}

// Transport defaults; see the Config field docs.
const (
	defaultCallTimeout   = 15 * time.Second
	defaultMaxRetries    = 2
	defaultBaseBackoff   = 25 * time.Millisecond
	defaultMaxBackoff    = 2 * time.Second
	defaultRetryBudget   = 64
	defaultProbeInterval = 500 * time.Millisecond
)

// withDefaults resolves the zero/negative encoding into effective values:
// zero fields take the package default, negative fields disable (0).
func (f Config) withDefaults() Config {
	switch {
	case f.CallTimeout == 0:
		f.CallTimeout = defaultCallTimeout
	case f.CallTimeout < 0:
		f.CallTimeout = 0
	}
	switch {
	case f.MaxRetries == 0:
		f.MaxRetries = defaultMaxRetries
	case f.MaxRetries < 0:
		f.MaxRetries = 0
	}
	switch {
	case f.BaseBackoff == 0:
		f.BaseBackoff = defaultBaseBackoff
	case f.BaseBackoff < 0:
		f.BaseBackoff = 0
	}
	if f.MaxBackoff == 0 {
		f.MaxBackoff = defaultMaxBackoff
	}
	switch {
	case f.RetryBudget == 0:
		f.RetryBudget = defaultRetryBudget
	case f.RetryBudget < 0:
		f.RetryBudget = -1 // unlimited
	}
	switch {
	case f.ProbeInterval == 0:
		f.ProbeInterval = defaultProbeInterval
	case f.ProbeInterval < 0:
		f.ProbeInterval = 0
	}
	return f
}

// Client is the coordinator's view of one worker connection — the subset
// of *rpc.Client the transport needs. Tests and the fault-injection
// harness substitute their own implementations via Coordinator.DialClient.
type Client interface {
	Go(serviceMethod string, args any, reply any, done chan *rpc.Call) *rpc.Call
	Close() error
}

// DialFunc creates a Client for a worker address.
type DialFunc func(addr string) (Client, error)

// DialTCP is the default transport: TCP + net/rpc with a bounded dial.
func DialTCP(addr string) (Client, error) {
	conn, err := net.DialTimeout("tcp", addr, defaultCallTimeout)
	if err != nil {
		return nil, err
	}
	return rpc.NewClient(conn), nil
}

// BlocksLostError reports blocks whose every replica was unreachable after
// retries. It fails the query unless Config.AllowPartial is set. The type
// lives in core, beside the Partial accounting the pipelines keep of the
// same fact, so front ends can map it without importing the transport.
type BlocksLostError = core.BlocksLostError

// errCallTimeout marks an RPC that outlived Config.CallTimeout. Transient:
// the call is retried after the suspect connection is dropped.
var errCallTimeout = errors.New("cluster: rpc call timed out")

// errSkipLost is the internal AllowPartial signal: the block is recorded as
// lost and the task completes with an empty contribution instead of
// aborting the run.
var errSkipLost = errors.New("cluster: block lost, degrading to partial")

// transient reports whether an RPC failure is worth retrying: connection
// resets and refusals, broken pipes, EOFs from a dying peer, rpc client
// shutdown, call timeouts, and generic net.Errors. Context cancellation is
// the caller giving up and application-level rpc.ServerErrors are
// deterministic (retrying reruns the same computation), so neither retries.
func transient(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, rpc.ErrShutdown), errors.Is(err, errCallTimeout),
		errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return true
	case errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNABORTED), errors.Is(err, syscall.EPIPE):
		return true
	}
	var se rpc.ServerError
	if errors.As(err, &se) {
		return false
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// splitmix64 is the SplitMix64 finalizer — the jitter hash. Keyed jitter
// (instead of a shared clock or global RNG) keeps retry schedules
// reproducible under a fixed query seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffDelay computes attempt k's wait: min(base<<k, max) jittered
// deterministically into [d/2, d) by key.
func backoffDelay(base, max time.Duration, attempt int, key uint64) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if max > 0 && d > max {
		d = max
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(splitmix64(key)%uint64(half))
}

// sleepCtx waits for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// workerConn is one worker's connection slot: the live client (nil while
// disconnected) plus its health state. Guarded by its own mutex so probes
// and calls to different workers never contend.
type workerConn struct {
	addr string

	mu      sync.Mutex
	client  Client
	down    bool // unhealthy: excluded from placement until a probe succeeds
	probing bool // a background reconnect loop is already running
}

// ensureClient returns the live client, dialing if the slot is empty.
func (w *workerConn) ensureClient(dial DialFunc) (Client, error) {
	w.mu.Lock()
	if w.client != nil {
		cl := w.client
		w.mu.Unlock()
		return cl, nil
	}
	w.mu.Unlock()
	cl, err := dial(w.addr) // dial outside the lock: it can block
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.client != nil { // raced with another dialer; keep the winner
		cl.Close()
		return w.client, nil
	}
	w.client = cl
	return cl, nil
}

// dropClient discards a suspect connection so the next attempt redials.
// Closing it also fails the connection's other in-flight calls fast
// (rpc.ErrShutdown), which re-dispatches them through the retry path.
func (w *workerConn) dropClient(cl Client) {
	w.mu.Lock()
	if w.client == cl {
		w.client = nil
	}
	w.mu.Unlock()
	cl.Close()
}

func (w *workerConn) healthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.down
}

// qstate is one query's failure accounting: the normalized knobs, the
// shared retry budget and the blocks lost so far.
type qstate struct {
	cfg    Config
	seed   uint64
	budget atomic.Int64 // remaining backoff retries; <0 once exhausted

	mu   sync.Mutex
	lost map[int]bool
}

func (c *Coordinator) newQuery() *qstate {
	q := &qstate{cfg: c.Fault.withDefaults(), seed: c.Cfg.Seed}
	if q.cfg.RetryBudget < 0 {
		q.budget.Store(int64(1) << 62) // effectively unlimited
	} else {
		q.budget.Store(int64(q.cfg.RetryBudget))
	}
	return q
}

func (q *qstate) isLost(id int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.lost[id]
}

func (q *qstate) lostBlocks() []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	ids := make([]int, 0, len(q.lost))
	for id := range q.lost {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// loseBlock records that no replica can answer for id. In AllowPartial
// mode it returns errSkipLost so the caller degrades; otherwise it returns
// the typed error naming every block lost so far.
func (q *qstate) loseBlock(id int) error {
	q.mu.Lock()
	if q.lost == nil {
		q.lost = make(map[int]bool)
	}
	q.lost[id] = true
	q.mu.Unlock()
	if q.cfg.AllowPartial {
		return errSkipLost
	}
	return &BlocksLostError{Blocks: q.lostBlocks()}
}

// dial resolves the client factory: the injected DialClient (tests, fault
// harness) or the default TCP transport.
func (c *Coordinator) dial(addr string) (Client, error) {
	if c.DialClient != nil {
		return c.DialClient(addr)
	}
	return DialTCP(addr)
}

// invoke performs one RPC attempt against w under the per-call deadline.
// On timeout the connection is dropped: a hung net/rpc connection stalls
// every call multiplexed on it, so it must not be reused. A caller that
// cancels merely abandons its call — the connection is shared with every
// concurrent query, and one client hanging up (or one failed phase
// cancelling its siblings) is no evidence against it.
func (c *Coordinator) invoke(ctx context.Context, w *workerConn, timeout time.Duration, method string, args, reply any) error {
	cl, err := w.ensureClient(c.dial)
	if err != nil {
		return err
	}
	done := make(chan *rpc.Call, 1)
	call := cl.Go(method, args, reply, done)
	var timeoutC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case <-done:
		if call.Error != nil && transient(call.Error) {
			w.dropClient(cl)
		}
		return call.Error
	case <-timeoutC:
		w.dropClient(cl)
		return errCallTimeout
	case <-ctx.Done():
		return ctx.Err()
	}
}

// place groups a phase's items by the worker that currently serves each:
// the first healthy, not-yet-tried replica of the item's block in
// registration order. Orphans are the items whose block has none left.
func (c *Coordinator) place(ids, items []int, tried []*workerConn) (groups map[*workerConn][]int, orphans []int) {
	groups = make(map[*workerConn][]int)
	c.mu.Lock()
	defer c.mu.Unlock()
next:
	for _, k := range items {
		for _, idx := range c.blockHome[ids[k]] {
			if w := c.workers[idx]; !slices.Contains(tried, w) && w.healthy() {
				groups[w] = append(groups[w], k)
				continue next
			}
		}
		orphans = append(orphans, k)
	}
	return groups, orphans
}

// markDown takes a worker out of placement and starts the background
// reconnect loop. In-flight calls on its connection fail fast (the client
// is closed) and re-enter the retry path, which fails them over.
func (c *Coordinator) markDown(w *workerConn) {
	probeEvery := c.Fault.withDefaults().ProbeInterval
	w.mu.Lock()
	w.down = true
	cl := w.client
	w.client = nil
	startProbe := probeEvery > 0 && !w.probing
	if startProbe {
		w.probing = true
	}
	w.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
	if startProbe {
		go c.probeLoop(w, probeEvery)
	}
}

// probeLoop pings an unhealthy worker (Worker.Info) until it answers, then
// readmits it. It stops when the coordinator closes.
func (c *Coordinator) probeLoop(w *workerConn, every time.Duration) {
	timeout := c.Fault.withDefaults().CallTimeout
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			w.mu.Lock()
			w.probing = false
			w.mu.Unlock()
			return
		case <-t.C:
		}
		cl, err := c.dial(w.addr)
		if err != nil {
			continue
		}
		var info InfoReply
		if err := ping(cl, timeout, &info); err != nil {
			cl.Close()
			continue
		}
		w.mu.Lock()
		w.probing = false
		select {
		case <-c.stop:
			// Close ran while this probe was dialing: nobody will close a
			// client installed now.
			w.mu.Unlock()
			cl.Close()
			return
		default:
		}
		if w.client != nil {
			w.client.Close()
		}
		w.client = cl
		w.down = false
		w.mu.Unlock()
		return
	}
}

// ping issues a timed Worker.Info health check on a fresh client.
func ping(cl Client, timeout time.Duration, info *InfoReply) error {
	done := make(chan *rpc.Call, 1)
	call := cl.Go("Worker.Info", struct{}{}, info, done)
	var timeoutC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case <-done:
		return call.Error
	case <-timeoutC:
		return errCallTimeout
	}
}

// scatter is one phase in flight — the fault-tolerance ladder. Item k of
// the phase concerns block ids[k]. Items are grouped by the replica that
// currently serves each block and every group travels as one RPC, all
// workers in flight at once: call builds a group's RPC from its item
// positions, plus an optional done that absorbs the reply once the call
// succeeded.
// Each RPC runs under the per-attempt deadline with same-worker retries
// under capped jittered backoff, bounded by the query's retry budget; a
// worker that exhausts them is marked unhealthy, probed in the background,
// and its items — only its — regroup onto their next replicas. A block with
// no replica left is lost: recorded in q under AllowPartial, a
// *BlocksLostError for the phase otherwise.
type scatter struct {
	c    *Coordinator
	q    *qstate
	ctx  context.Context
	ids  []int
	call func(items []int) (method string, args, reply any, done func() error)

	wg     sync.WaitGroup
	cancel context.CancelFunc
	mu     sync.Mutex
	err    error // first failure; cancels the rest of the phase
}

func (c *Coordinator) scatter(ctx context.Context, q *qstate, ids []int, call func(items []int) (string, any, any, func() error)) error {
	s := &scatter{c: c, q: q, ids: ids, call: call}
	s.ctx, s.cancel = context.WithCancel(ctx)
	defer s.cancel()
	items := make([]int, len(ids))
	for k := range items {
		items[k] = k
	}
	s.dispatch(items, nil)
	s.wg.Wait()
	return s.err
}

func (s *scatter) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		s.cancel()
	}
	s.mu.Unlock()
}

// dispatch places items on the replicas not yet tried and runs one batch
// per worker, concurrently.
func (s *scatter) dispatch(items []int, tried []*workerConn) {
	groups, orphans := s.c.place(s.ids, items, tried)
	for _, k := range orphans {
		if err := s.q.loseBlock(s.ids[k]); err != errSkipLost {
			s.fail(err)
			return
		}
	}
	for w, group := range groups {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.run(w, group, tried)
		}()
	}
}

// run drives one worker's batch: attempts, retries, then failover of its
// items.
func (s *scatter) run(w *workerConn, items []int, tried []*workerConn) {
	q, first := s.q, s.ids[items[0]]
	method, args, reply, done := s.call(items)
	for attempt := 0; ; attempt++ {
		err := s.c.invoke(s.ctx, w, q.cfg.CallTimeout, method, args, reply)
		if err == nil && done != nil {
			err = done()
		}
		if err == nil {
			return
		}
		if ctxErr := s.ctx.Err(); ctxErr != nil {
			s.fail(ctxErr)
			return
		}
		if !transient(err) {
			s.fail(fmt.Errorf("cluster: %s block %d (batch of %d) on %s: %w", method, first, len(items), w.addr, err))
			return
		}
		if attempt >= q.cfg.MaxRetries || q.budget.Add(-1) < 0 {
			break // retries exhausted on this worker
		}
		key := q.seed ^ splitmix64(uint64(first)<<24^uint64(len(tried))<<16^uint64(attempt))
		if err := sleepCtx(s.ctx, backoffDelay(q.cfg.BaseBackoff, q.cfg.MaxBackoff, attempt, key)); err != nil {
			s.fail(err)
			return
		}
	}
	s.c.markDown(w)
	s.dispatch(items, append(tried[:len(tried):len(tried)], w))
}

// Health reports each connected worker's address and whether it is
// currently admitted to placement. Replicas of the same address collapse
// to one entry (healthy wins).
func (c *Coordinator) Health() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := make(map[string]bool, len(c.workers))
	for _, w := range c.workers {
		ok := w.healthy()
		if prev, seen := m[w.addr]; seen {
			ok = ok || prev
		}
		m[w.addr] = ok
	}
	return m
}
