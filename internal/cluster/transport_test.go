package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/rpc"
	"strings"
	"syscall"
	"testing"
	"time"

	"isla/internal/block"
	"isla/internal/core"
)

func TestConfigWithDefaults(t *testing.T) {
	d := Config{}.withDefaults()
	if d.CallTimeout != defaultCallTimeout || d.MaxRetries != defaultMaxRetries ||
		d.BaseBackoff != defaultBaseBackoff || d.MaxBackoff != defaultMaxBackoff ||
		d.RetryBudget != defaultRetryBudget || d.ProbeInterval != defaultProbeInterval {
		t.Fatalf("zero config did not take defaults: %+v", d)
	}
	n := Config{
		CallTimeout:   -1,
		MaxRetries:    -1,
		BaseBackoff:   -1,
		RetryBudget:   -1,
		ProbeInterval: -1,
	}.withDefaults()
	if n.CallTimeout != 0 || n.MaxRetries != 0 || n.BaseBackoff != 0 || n.ProbeInterval != 0 {
		t.Fatalf("negative fields did not disable: %+v", n)
	}
	if n.RetryBudget != -1 {
		t.Fatalf("negative retry budget should mean unlimited, got %d", n.RetryBudget)
	}
	e := Config{CallTimeout: time.Second, MaxRetries: 7}.withDefaults()
	if e.CallTimeout != time.Second || e.MaxRetries != 7 {
		t.Fatalf("explicit fields overridden: %+v", e)
	}
}

func TestBackoffDeterministicJitter(t *testing.T) {
	base, max := 10*time.Millisecond, 100*time.Millisecond
	for attempt := 0; attempt < 8; attempt++ {
		d1 := backoffDelay(base, max, attempt, 42)
		d2 := backoffDelay(base, max, attempt, 42)
		if d1 != d2 {
			t.Fatalf("attempt %d: jitter not deterministic: %v vs %v", attempt, d1, d2)
		}
		raw := base << attempt
		if raw > max {
			raw = max
		}
		if d1 < raw/2 || d1 >= raw {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d1, raw/2, raw)
		}
	}
	// Different keys decorrelate the jitter.
	same := 0
	for k := uint64(0); k < 32; k++ {
		if backoffDelay(base, max, 2, k) == backoffDelay(base, max, 2, k+1000) {
			same++
		}
	}
	if same > 8 {
		t.Fatalf("jitter barely varies across keys: %d/32 collisions", same)
	}
	if d := backoffDelay(0, max, 3, 1); d != 0 {
		t.Fatalf("disabled backoff returned %v", d)
	}
}

// TestQueryJitterKeyedOnQuerySeed: the source a view builds for a query keys
// its retry jitter on that query's seed, so two queries retrying the same
// block on the same replica at the same attempt back off differently, and
// one seed replays one schedule.
func TestQueryJitterKeyedOnQuerySeed(t *testing.T) {
	v := &ShardView{c: newCoordinator(Config{}, nil)}
	for attempt := 0; attempt < 4; attempt++ {
		d7 := v.source(7, false).q.backoff(3, 1, attempt)
		if d := v.source(7, true).q.backoff(3, 1, attempt); d != d7 {
			t.Fatalf("attempt %d: seed 7 backs off %v, then %v", attempt, d7, d)
		}
		if d8 := v.source(8, false).q.backoff(3, 1, attempt); d8 == d7 {
			t.Fatalf("attempt %d: seeds 7 and 8 both back off %v", attempt, d7)
		}
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{rpc.ErrShutdown, true},
		{errCallTimeout, true},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{fmt.Errorf("wrapped: %w", syscall.ECONNRESET), true},
		{syscall.ECONNREFUSED, true},
		{syscall.EPIPE, true},
		{errInjected, true},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{rpc.ServerError("cluster: worker has no block 9"), false},
		{errors.New("some application error"), false},
	}
	for _, c := range cases {
		if got := transient(c.err); got != c.want {
			t.Errorf("transient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// startReplica serves blocks on a loopback listener and returns the worker
// handle (so chaos tests can kill it) plus its address.
func startReplica(t testing.TB, blocks ...block.Block) (*Worker, string) {
	t.Helper()
	w := NewWorker(blocks...)
	l, err := w.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, l.Addr().String()
}

// fastFault is the chaos-test tuning: real fault-tolerance semantics at
// test-friendly timescales.
func fastFault() Config {
	return Config{
		CallTimeout:   2 * time.Second,
		MaxRetries:    3,
		BaseBackoff:   time.Millisecond,
		MaxBackoff:    4 * time.Millisecond,
		ProbeInterval: 20 * time.Millisecond,
	}
}

// workerTable opens the table the workers at addrs serve as they stand: the
// manifest is read from their inventories (the same block id on two
// addresses is a replica, the earlier address its primary).
func workerTable(t testing.TB, fault Config, dial DialFunc, addrs ...string) *ShardTable {
	t.Helper()
	man, err := ManifestFromWorkers(addrs, fault, dial)
	if err != nil {
		t.Fatal(err)
	}
	return shardTable(t, man, fault, dial)
}

// viewResult is an unfiltered answer with the per-block partials its
// calculation phase folded.
type viewResult struct {
	core.Result
	PerBlock []core.BlockResult
}

// runView is one cold unfiltered query on a view: freeze the pilot, resume it.
func runView(ctx context.Context, v *ShardView, cfg core.Config) (viewResult, error) {
	fp, err := v.FreezePilot(ctx, cfg)
	if err != nil {
		return viewResult{}, err
	}
	return resumeView(ctx, v, cfg, fp)
}

// resumeView is ShardView.EstimateFrozen with a destination for the
// per-block partials.
func resumeView(ctx context.Context, v *ShardView, cfg core.Config, fp core.FrozenPilot) (viewResult, error) {
	blocks := make([]core.BlockResult, len(v.ids))
	res, err := core.EstimateFrozen(ctx, v.source(cfg.Seed, cfg.AllowPartial), cfg, fp, blocks)
	return viewResult{res, blocks}, err
}

// healthyResult is the fault-free reference answer over addrs.
func healthyResult(t *testing.T, cfg core.Config, addrs ...string) viewResult {
	t.Helper()
	res, err := runView(context.Background(), workerTable(t, fastFault(), nil, addrs...).View(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameResult pins bit-identity of the answer and every per-block
// partial — the determinism-under-failover contract.
func assertSameResult(t *testing.T, want, got viewResult) {
	t.Helper()
	if got.Estimate != want.Estimate || got.Sum != want.Sum {
		t.Fatalf("answer moved: estimate %v vs %v, sum %v vs %v",
			got.Estimate, want.Estimate, got.Sum, want.Sum)
	}
	if got.TotalSamples != want.TotalSamples {
		t.Fatalf("sample count moved: %d vs %d", got.TotalSamples, want.TotalSamples)
	}
	if len(got.PerBlock) != len(want.PerBlock) {
		t.Fatalf("per-block count %d vs %d", len(got.PerBlock), len(want.PerBlock))
	}
	for i := range got.PerBlock {
		if got.PerBlock[i].Answer != want.PerBlock[i].Answer ||
			got.PerBlock[i].BlockID != want.PerBlock[i].BlockID {
			t.Fatalf("block %d partial moved: %+v vs %+v", i, got.PerBlock[i], want.PerBlock[i])
		}
	}
}

func TestFailoverDuplicateRegistrationReplicas(t *testing.T) {
	blocks := normalBlocks(t, 120000, 6, 8)
	_, addr1 := startReplica(t, blocks...)
	_, addr2 := startReplica(t, blocks...)

	cfg := core.DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = 3
	want := healthyResult(t, cfg, addr1)

	st := workerTable(t, fastFault(), nil, addr1, addr2)

	// Replicated blocks count once, not twice.
	if st.Rows() != 120000 {
		t.Fatalf("Rows = %d with replicas, want 120000", st.Rows())
	}
	coord := st.c
	coord.mu.Lock()
	for id, replicas := range coord.blockHome {
		if len(replicas) != 2 {
			coord.mu.Unlock()
			t.Fatalf("block %d has %d replicas, want 2", id, len(replicas))
		}
	}
	coord.mu.Unlock()

	// Registering a replica must not move the answer: placement prefers
	// the first registration, and seeds are keyed to block order anyway.
	res, err := runView(context.Background(), st.View(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, want, res)
}

// TestConnectRejectsReplicaLengthMismatch: two workers serving the same
// block id at different lengths cannot both be admitted — not through a
// manifest read from them, and not at registration.
func TestConnectRejectsReplicaLengthMismatch(t *testing.T) {
	_, addr1 := startReplica(t, block.NewMemBlock(0, make([]float64, 1000)))
	_, addr2 := startReplica(t, block.NewMemBlock(0, make([]float64, 500)))

	_, err := ManifestFromWorkers([]string{addr1, addr2}, fastFault(), nil)
	if err == nil {
		t.Fatal("mismatched replica accepted")
	}
	if want := "replica mismatch"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}

	coord := workerTable(t, fastFault(), nil, addr1).c
	err = coord.connect(ShardEntry{Addr: addr2, Blocks: []int{0}, Lens: []int64{500}})
	if err == nil {
		t.Fatal("mismatched replica accepted")
	}
	if want := "replica mismatch"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
	// The bad worker must not have been admitted.
	coord.mu.Lock()
	nw := len(coord.workers)
	coord.mu.Unlock()
	if nw != 1 {
		t.Fatalf("workers = %d after rejected connect, want 1", nw)
	}
}

func TestRunContextCancellation(t *testing.T) {
	blocks := normalBlocks(t, 120000, 6, 4)
	_, addr := startReplica(t, blocks...)
	cfg := core.DefaultConfig()
	cfg.Precision = 0.5
	view := workerTable(t, fastFault(), nil, addr).View()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runView(ctx, view, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
