package cluster

// The batch battery: what the phase-level scatter promises beyond the
// answer bits the Shard* tests pin — how many round trips a query makes,
// that the retry / failover ladder works per worker batch, that a reply from
// a block of another length is refused with a typed error, and that neither a
// cancelled query nor a closed coordinator damages or leaks a connection.
//
// CI runs the Batch* tests under -race next to the chaos battery.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"net/rpc"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/leverage"
	"isla/internal/workload"
)

// shardTable opens the manifested table directly, for tests that drive the
// views' phases without an engine.
func shardTable(t testing.TB, man *ShardManifest, fault Config, dial DialFunc) *ShardTable {
	t.Helper()
	st, err := NewShardTable(man, core.DefaultConfig(), fault, dial)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestBatchRoundCounts pins the rounds-per-query table on a healthy
// 4-worker table: every worker receives exactly one data-path call per
// phase — 2 for a cold point query (pilot, calc), 3 for a cold filtered one
// (probe, sized pilot, calc), 1 for either once its pilot is cached.
func TestBatchRoundCounts(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 320000, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	man, _ := startShards(t, s.Blocks(), interleaved(16, 4))
	f := NewFaults(1) // no fault probabilities: a per-worker call counter
	eng := shardEngine(t, man, f.Wrap(dialTCP))
	before := make(map[string]int)
	step := func(name, sql string, want int) {
		t.Helper()
		if _, err := eng.ExecuteSQL(sql); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, e := range man.Shards {
			n := f.Calls(e.Addr)
			if got := n - before[e.Addr]; got != want {
				t.Fatalf("%s: worker %s received %d calls, want %d", name, e.Addr, got, want)
			}
			before[e.Addr] = n
		}
	}
	const (
		point    = "SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 7"
		filtered = "SELECT SUM(v) FROM t WHERE v > 80 AND v < 130 WITH PRECISION 0.5 SEED 7"
	)
	step("cold point", point, 2)
	step("warm point", point, 1)
	step("cold filtered", filtered, 3)
	step("warm filtered", filtered, 1)
}

// TestBatchWorkerAnswersItemForItem pins Worker.Batch against the per-block
// handler it is built from — moments items unfiltered and under a filter,
// planned items unfiltered — and that one bad item, a planned item under a
// filter included, fails the batch.
func TestBatchWorkerAnswersItemForItem(t *testing.T) {
	w := NewWorker(normalBlocks(t, 40000, 4, 5)...)
	bounds := &leverage.Boundaries{Center: 100, Sigma: 20, P1: 0.5, P2: 2}
	for _, f := range []*core.Filter{nil, {Lo: 90, Hi: 120}, {Lo: 90, Hi: 120, Not: []float64{100}}} {
		args := BatchArgs{Filter: f}
		for id := 0; id < 4; id++ {
			args.Items = append(args.Items, PhaseArgs{BlockID: id, Draws: 300, S0: uint64(id) + 1, S1: 9})
			if f == nil {
				args.Items = append(args.Items, PhaseArgs{BlockID: id, Draws: 400, S0: uint64(id), S1: 3, Bounds: bounds})
			}
		}
		var got BatchReply
		if err := w.Batch(args, &got); err != nil {
			t.Fatal(err)
		}
		for i, item := range args.Items {
			var want PhaseReply
			if err := w.phase(item, f, &want); err != nil {
				t.Fatal(err)
			}
			if got.Items[i] != want {
				t.Fatalf("filter %v, item %d: batch reply differs from the per-block handler's", f, i)
			}
		}
		args.Items[2].BlockID = 99
		if err := w.Batch(args, &BatchReply{}); err == nil {
			t.Fatal("a batch naming an unknown block succeeded")
		}
		if f != nil {
			args.Items[2] = PhaseArgs{BlockID: 2, Draws: 400, S0: 2, S1: 3, Bounds: bounds}
			if err := w.Batch(args, &BatchReply{}); err == nil {
				t.Fatal("a planned item under a filter succeeded")
			}
		}
	}
}

// oldWorkerClient answers Worker.Batch as a worker built before the one
// phase kind would: the real worker's replies, re-shaped into the per-kind
// fields of the retired wire (Pilot []PilotStateReply, Sample
// []SampleReply), none in Items. viaGob carries that reply into the
// caller's BatchReply the way net/rpc would, through gob; otherwise the
// per-kind fields are simply dropped, leaving no items.
type oldWorkerClient struct {
	Client
	viaGob bool
}

func (c oldWorkerClient) Go(method string, args, reply any, done chan *rpc.Call) *rpc.Call {
	if method != "Worker.Batch" {
		return c.Client.Go(method, args, reply, done)
	}
	if done == nil {
		done = make(chan *rpc.Call, 1)
	}
	call := &rpc.Call{ServiceMethod: method, Args: args, Reply: reply, Done: done}
	var fresh BatchReply
	if call.Error = (<-c.Client.Go(method, args, &fresh, nil).Done).Error; call.Error == nil {
		var old struct {
			Pilot  []PilotStateReply
			Sample []SampleReply
		}
		for i, a := range args.(BatchArgs).Items {
			r := fresh.Items[i]
			if a.Bounds != nil {
				old.Sample = append(old.Sample, SampleReply{BlockID: a.BlockID, Len: r.Len, Samples: a.Draws, S: r.S, L: r.L, D: r.D, D2: r.D2})
			} else {
				old.Pilot = append(old.Pilot, PilotStateReply{BlockID: a.BlockID, Len: r.Len, Count: r.Count, Mean: r.Mean,
					M2: r.M2, Min: r.Min, Max: r.Max})
			}
		}
		if c.viaGob {
			var buf bytes.Buffer
			if err := errors.Join(gob.NewEncoder(&buf).Encode(old), gob.NewDecoder(&buf).Decode(reply)); err != nil {
				call.Error = errors.New("reading body " + err.Error()) // net/rpc's wording
			}
		}
	}
	done <- call
	return call
}

// TestBatchOldReplyShapeFailsThePhase pairs this build's coordinator with
// workers that answer in the pre-change reply shape. Every phase must fail
// loudly, never answer — the calculation not even under AllowPartial, where
// a lost block would degrade: dropped to no items, the reply fails the
// batch's item count; through gob it does not decode at all (the two reply
// types share no field), before the count is looked at.
func TestBatchOldReplyShapeFailsThePhase(t *testing.T) {
	man, _ := startShards(t, normalBlocks(t, 80000, 4, 12), interleaved(4, 2))
	ctx, cfg, f := context.Background(), chaosConfig(5), core.IntervalFilter(80, 130)
	cfg.AllowPartial = true
	fp, err := shardTable(t, man, fastFault(), nil).View().FreezePilot(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for viaGob, want := range map[bool]string{false: "batch of 2 items answered with 0", true: "no fields matched"} {
		view := shardTable(t, man, fastFault(), func(addr string) (Client, error) {
			cl, err := dialTCP(addr)
			if err != nil {
				return nil, err
			}
			return oldWorkerClient{cl, viaGob}, nil
		}).View()
		pilot, pilotErr := view.FreezePilot(ctx, cfg)
		filterPilot, filterErr := view.FreezeFilterPilot(ctx, cfg, f)
		res, calcErr := view.EstimateFrozen(ctx, cfg, fp)
		for name, err := range map[string]error{"pilot": pilotErr, "filter pilot": filterErr, "calculation": calcErr} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("via gob %v, %s: err = %v, want %q", viaGob, name, err, want)
			}
		}
		if !reflect.DeepEqual(pilot, core.FrozenPilot{}) || !reflect.DeepEqual(filterPilot, core.FilterPilot{}) || !reflect.DeepEqual(res, core.Result{}) {
			t.Fatalf("via gob %v: a failed phase answered: %+v, %+v, %+v", viaGob, pilot, filterPilot, res)
		}
	}
}

// TestBatchChaosAllHangTypedError drives every batch into a hang: each
// attempt burns the call deadline, retries exhaust, every worker is marked
// down, and the phase must fail with the typed error naming the lost blocks.
func TestBatchChaosAllHangTypedError(t *testing.T) {
	man, _ := startShards(t, normalBlocks(t, 60000, 4, 9), interleaved(4, 2))
	f := NewFaults(3)
	f.HangProb = 1
	fault := fastFault()
	fault.CallTimeout = 50 * time.Millisecond
	fault.MaxRetries = 1
	st := shardTable(t, man, fault, f.Wrap(dialTCP))

	_, err := st.View().FreezePilot(context.Background(), chaosConfig(4))
	var lost *BlocksLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want *BlocksLostError", err)
	}
	if len(lost.Blocks) == 0 {
		t.Fatal("typed error names no blocks")
	}
}

// TestBatchChaosPartialAccounting loses a shard with no replica between the
// pilot and the calculation phase. Under the query's AllowPartial the
// calculation answers over the reachable rows with the exact accounting a
// quarantined local store reports; the pilot refuses regardless, because a
// lost pilot block would silently change the pooled statistics.
func TestBatchChaosPartialAccounting(t *testing.T) {
	surviving, lostBlocks := partialBlocks(t)
	man, workers := startShards(t, append(surviving, lostBlocks...), [][]int{{0, 1, 2, 3}, {4, 5}})
	view := shardTable(t, man, fastFault(), nil).View()
	cfg := chaosConfig(11)
	cfg.AllowPartial = true
	ctx := context.Background()

	fp, err := view.FreezePilot(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	workers[1].Close() // permanent: blocks 4 and 5 have no other home

	res, err := resumeView(ctx, view, cfg, fp)
	if err != nil {
		t.Fatalf("partial run: %v", err)
	}
	p := res.Partial
	if p == nil {
		t.Fatal("Partial accounting missing")
	}
	if len(p.MissingBlocks) != 2 || p.MissingBlocks[0] != 4 || p.MissingBlocks[1] != 5 {
		t.Fatalf("MissingBlocks = %v, want [4 5]", p.MissingBlocks)
	}
	if p.CoveredRows != 160000 || p.TotalRows != 240000 {
		t.Fatalf("covered/total = %d/%d, want 160000/240000", p.CoveredRows, p.TotalRows)
	}
	if got, want := res.Sum, res.Estimate*float64(p.CoveredRows); got != want {
		t.Fatalf("Sum = %v, want Estimate·CoveredRows = %v", got, want)
	}
	// PerBlock is index-aligned with the layout on every source (a local
	// store's quarantined blocks keep their entries too): the lost blocks'
	// entries name the block and nothing else.
	if len(res.PerBlock) != 6 {
		t.Fatalf("per-block results = %d, want 6 (one per block)", len(res.PerBlock))
	}
	for i, br := range res.PerBlock {
		if br.BlockID != i {
			t.Fatalf("entry %d names block %d", i, br.BlockID)
		}
		if lost := br.BlockID >= 4; lost != (br.Samples == 0 && br.Len == 0) {
			t.Fatalf("block %d (lost=%v) entry = %+v", br.BlockID, lost, br)
		}
	}

	var lost *BlocksLostError
	if _, err := view.FreezePilot(ctx, cfg); !errors.As(err, &lost) {
		t.Fatalf("pilot over a lost shard = %v, want *BlocksLostError", err)
	}
}

// TestFailoverRetryBudgetBoundsBatchCalls is TestFailoverRetryBudgetBoundsCalls
// re-derived for batches: with no call answering, a phase costs one first
// attempt per worker batch plus the query's shared retry budget — 2 + 5
// here, whatever the block count; MaxRetries=100 alone would allow ~200.
// Both batches spend the budget: worker 0 takes one retry and worker 1 the
// other four, so a budget per batch would count 2 + 6 = 8 or more.
//
// The count is fixed by the order of events, not by timing. A phase that
// cannot degrade fails, and cancels its other batches, the moment one
// worker's retries run out, so a sibling that had not yet sent its first
// attempt or a retry the budget already granted it never sends it: with
// both workers failing at once, 9 of 150 -race runs on a loaded 2-CPU
// machine counted 6 calls. Here worker 0's first attempt fails and its
// retry hangs; worker 1's first attempt waits for that retry to be counted,
// then fails, and worker 1 spends what is left of the budget. No call
// deadline, backoff or probe enters the count.
func TestFailoverRetryBudgetBoundsBatchCalls(t *testing.T) {
	man, _ := startShards(t, normalBlocks(t, 60000, 8, 9), interleaved(8, 2))
	a0, a1 := man.Shards[0].Addr, man.Shards[1].Addr
	f0, f1 := NewFaults(7), NewFaults(7)
	f0.ErrorProb, f1.ErrorProb = 1, 1
	parked := make(chan struct{})
	f0.Script(a0, 1, func() { f0.ErrorProb, f0.HangProb = 0, 1 }) // the first attempt fails, later ones hang
	f0.Script(a0, 2, func() { close(parked) })
	f1.Script(a1, 1, func() { <-parked })
	dial := func(addr string) (Client, error) {
		if addr == a0 {
			return f0.Wrap(dialTCP)(addr)
		}
		return f1.Wrap(dialTCP)(addr)
	}
	fault := fastFault()
	fault.CallTimeout = -1 // the hung retry waits for the phase to fail
	fault.MaxRetries = 100
	fault.RetryBudget = 5
	fault.BaseBackoff = -1 // no sleeping: count pure attempts
	st := shardTable(t, man, fault, dial)

	_, err := st.View().FreezePilot(context.Background(), chaosConfig(2))
	var lost *BlocksLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want *BlocksLostError", err)
	}
	if c0, c1 := f0.Calls(a0), f1.Calls(a1); c0 != 2 || c1 != 5 {
		t.Fatalf("%d + %d calls, want 2 + 5: one per worker batch plus the shared retry budget", c0, c1)
	}
}

// TestBatchPilotLengthMismatchTypedError swaps a worker's block for one of
// another length after admission. Every request on it then indexes a
// different block than the pipeline planned, and each phase — unfiltered
// probes, filter pilot, filtered calculation and the calculation round —
// must refuse with the typed error instead of answering a silently different
// plan.
func TestBatchPilotLengthMismatchTypedError(t *testing.T) {
	blocks := normalBlocks(t, 80000, 4, 12)
	man, workers := startShards(t, blocks, interleaved(4, 2))
	view := shardTable(t, man, fastFault(), nil).View()
	ctx, cfg, f := context.Background(), chaosConfig(5), core.IntervalFilter(80, 130)
	fp, err := view.FreezePilot(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ffp, err := view.FreezeFilterPilot(ctx, cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	short := blocks[2].(*block.MemBlock).Data()[:15000]
	workers[0].addBlock(block.NewMemBlock(blocks[2].ID(), short))

	_, pilotErr := view.FreezePilot(ctx, cfg)
	_, filterPilotErr := view.FreezeFilterPilot(ctx, cfg, f)
	_, filterCalcErr := view.EstimateFilteredFrozen(ctx, cfg, f, ffp)
	_, calcErr := view.EstimateFrozen(ctx, cfg, fp)
	for name, err := range map[string]error{"pilot": pilotErr, "filter pilot": filterPilotErr,
		"filtered calculation": filterCalcErr, "calculation": calcErr} {
		var length *core.BlockLengthError
		if !errors.As(err, &length) {
			t.Fatalf("%s: err = %v, want *core.BlockLengthError", name, err)
		}
		if length.BlockID != blocks[2].ID() || length.Len != 15000 || length.WantLen != blocks[2].Len() {
			t.Fatalf("%s: typed error = %+v, want block %d at 15000 of %d rows", name, length, blocks[2].ID(), blocks[2].Len())
		}
	}
}

// countingDial counts dials per address and the clients still open.
type countingDial struct {
	inner DialFunc

	mu    sync.Mutex
	dials map[string]int
	open  int
}

type countedClient struct {
	Client
	d    *countingDial
	once sync.Once
}

func (d *countingDial) dial(addr string) (Client, error) {
	cl, err := d.inner(addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dials == nil {
		d.dials = make(map[string]int)
	}
	d.dials[addr]++
	d.open++
	return &countedClient{Client: cl, d: d}, nil
}

func (c *countedClient) Close() error {
	c.once.Do(func() {
		c.d.mu.Lock()
		c.d.open--
		c.d.mu.Unlock()
	})
	return c.Client.Close()
}

// TestBatchCancelledQueryKeepsSharedConnection runs two sharded queries at
// once over slowed workers and cancels one mid-flight. The connections are
// shared, so the survivor must finish on them undisturbed: bit-identical
// answer, no retried call, one dial per worker for the table's lifetime.
func TestBatchCancelledQueryKeepsSharedConnection(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 160000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	man, _ := startShards(t, s.Blocks(), interleaved(8, 4))
	cfg := chaosConfig(6)
	bg := context.Background()
	want, err := core.LocalExecutor{S: s}.FreezePilot(bg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks := make([]core.BlockResult, s.NumBlocks())
	wantRes, err := core.EstimateFrozen(bg, core.LocalExecutor{S: s}.Source(cfg), cfg, want, wantBlocks)
	if err != nil {
		t.Fatal(err)
	}

	f := NewFaults(5)
	f.DelayProb = 1
	f.Delay = 150 * time.Millisecond
	dials := &countingDial{inner: f.Wrap(dialTCP)}
	view := shardTable(t, man, fastFault(), dials.dial).View()

	ctx, cancel := context.WithCancel(bg)
	victim := make(chan error, 1)
	go func() {
		_, err := view.FreezePilot(ctx, cfg)
		victim <- err
	}()
	survivor := make(chan viewResult, 1)
	go func() {
		fp, err := view.FreezePilot(bg, cfg)
		if err == nil {
			var res viewResult
			if res, err = resumeView(bg, view, cfg, fp); err == nil {
				survivor <- res
				return
			}
		}
		t.Errorf("surviving query: %v", err)
		survivor <- viewResult{}
	}()
	// Cancel once both queries' pilot batches are out on every worker (each
	// then sits in its 150 ms delay).
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		inFlight := true
		for _, e := range man.Shards {
			inFlight = inFlight && f.Calls(e.Addr) >= 2
		}
		if inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the two pilot phases never went out")
		}
	}
	cancel()
	if err := <-victim; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query = %v, want context.Canceled", err)
	}
	assertSameResult(t, viewResult{wantRes, wantBlocks}, <-survivor)
	for _, e := range man.Shards {
		// The victim's pilot batch, the survivor's pilot and calc batches.
		if n := f.Calls(e.Addr); n != 3 {
			t.Errorf("worker %s received %d calls, want 3 (a retry happened)", e.Addr, n)
		}
		if n := dials.dials[e.Addr]; n != 1 {
			t.Errorf("worker %s was dialed %d times, want 1", e.Addr, n)
		}
	}
}

// TestFailoverProbeRacingCloseLeaksNothing closes the coordinator while a
// readmission probe is between its stop check and installing the client it
// dialed: the probe must close that client itself, because nobody else will.
func TestFailoverProbeRacingCloseLeaksNothing(t *testing.T) {
	addr := startWorker(t, normalBlocks(t, 4000, 2, 3)...)
	baseline := runtime.NumGoroutine()

	entered, release := make(chan struct{}), make(chan struct{})
	var gate sync.Once
	dials := &countingDial{inner: dialTCP}
	fault := fastFault()
	fault.ProbeInterval = 2 * time.Millisecond
	probing := false
	dial := func(a string) (Client, error) {
		if probing {
			gate.Do(func() {
				close(entered)
				<-release
			})
		}
		return dials.dial(a)
	}
	coord := newCoordinator(fault, dial)
	man, err := ManifestFromWorkers([]string{addr}, fault, dial)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.connect(man.Shards[0]); err != nil {
		t.Fatal(err)
	}
	probing = true
	coord.mu.Lock()
	w := coord.workers[0]
	coord.mu.Unlock()
	coord.markDown(w) // the worker itself stays up, so the probe's ping succeeds

	<-entered // the probe passed its stop check and is dialing
	coord.Close()
	close(release)

	deadline := time.Now().Add(5 * time.Second)
	for {
		dials.mu.Lock()
		open := dials.open
		dials.mu.Unlock()
		w.mu.Lock()
		installed, probingNow := w.client != nil, w.probing
		w.mu.Unlock()
		if open == 0 && !installed && !probingNow && runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d clients open, client installed %v, probe running %v, %d goroutines (baseline %d)",
				open, installed, probingNow, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkShardPhase is the shard tier's per-layer micro-benchmark: 4
// loopback workers × 4 blocks (the layered benchmark's shard_scatter
// topology), one query per iteration, reporting the RPCs it cost beside
// ns/op and allocs/op.
func BenchmarkShardPhase(b *testing.B) {
	s, _, err := workload.Normal(100, 20, 1_000_000, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	man, _ := startShards(b, s.Blocks(), contiguous(16, 4))
	f := NewFaults(1) // the RPC counter
	view := shardTable(b, man, Config{}, f.Wrap(dialTCP)).View()
	cfg := core.DefaultConfig()
	cfg.Precision = 0.5
	ctx := context.Background()
	filter := core.IntervalFilter(80, 130)
	warm, err := view.FreezePilot(ctx, cfg)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, query func(cfg core.Config) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			calls := 0
			for _, e := range man.Shards {
				calls -= f.Calls(e.Addr)
			}
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Seed = uint64(i) + 1
				if err := query(c); err != nil {
					b.Fatal(err)
				}
			}
			for _, e := range man.Shards {
				calls += f.Calls(e.Addr)
			}
			b.ReportMetric(float64(calls)/float64(b.N), "RPCs/op")
		})
	}
	run("cold-point", func(c core.Config) error {
		fp, err := view.FreezePilot(ctx, c)
		if err == nil {
			_, err = view.EstimateFrozen(ctx, c, fp)
		}
		return err
	})
	run("cold-filtered", func(c core.Config) error {
		fp, err := view.FreezeFilterPilot(ctx, c, filter)
		if err == nil {
			_, err = view.EstimateFilteredFrozen(ctx, c, filter, fp)
		}
		return err
	})
	run("warm", func(c core.Config) error {
		_, err := view.EstimateFrozen(ctx, cfg, warm)
		return err
	})
}
