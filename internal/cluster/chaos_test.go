package cluster

// The chaos battery: deterministic fault injection (Faults) against live
// TCP workers, over tables whose manifest is read from the workers as they
// stand (ManifestFromWorkers — the islacli -cluster path; the Shard* and
// Batch* batteries cover hand-written manifests). Every scenario asserts one of the two contracts the
// fault-tolerance layer guarantees:
//
//   - a worker lost while a replica holds its blocks yields a result
//     bit-identical to the healthy run (seeds are keyed to block order,
//     never to worker identity);
//   - a block lost with no replica either fails with a *BlocksLostError
//     naming it, or — under AllowPartial — degrades to an answer over the
//     reachable fraction with exact MissingBlocks/CoveredRows accounting.
//
// CI runs this file (plus the Failover tests) under -race on every push.

import (
	"context"
	"errors"
	"net"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/engine"
	"isla/internal/stats"
)

func chaosConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Precision = 0.5
	cfg.Seed = seed
	return cfg
}

// chaosView opens the table the workers at addrs serve through the fault
// harness and returns its whole-table view.
func chaosView(t *testing.T, fault Config, f *Faults, addrs ...string) *ShardView {
	t.Helper()
	var dial DialFunc
	if f != nil {
		dial = f.Wrap(dialTCP)
	}
	return workerTable(t, fault, dial, addrs...).View()
}

// TestChaosFlakyTransportBitIdentical runs both replicas behind a flaky
// transport — injected resets, hangs that outlive the call deadline, and
// sub-deadline delays — and requires the exact healthy answer: retries and
// failover recompute, never resample.
func TestChaosFlakyTransportBitIdentical(t *testing.T) {
	blocks := normalBlocks(t, 240000, 6, 5)
	_, addr1 := startReplica(t, blocks...)
	_, addr2 := startReplica(t, blocks...)
	cfg := chaosConfig(13)
	want := healthyResult(t, cfg, addr1, addr2)

	f := NewFaults(7)
	f.ErrorProb = 0.25
	f.HangProb = 0.05
	f.DelayProb = 0.2
	f.Delay = 2 * time.Millisecond
	fault := fastFault()
	fault.CallTimeout = 300 * time.Millisecond
	fault.MaxRetries = 5
	fault.RetryBudget = 1000
	view := chaosView(t, fault, f, addr1, addr2)

	for run := 0; run < 2; run++ {
		res, err := runView(context.Background(), view, cfg)
		if err != nil {
			t.Fatalf("flaky run %d: %v", run, err)
		}
		assertSameResult(t, want, res)
	}
}

// TestChaosHangsExhaustIntoTypedError drives every calculation call into a
// hang: each attempt burns the call deadline, retries exhaust, the only
// worker is marked down, and the run must fail with the typed error naming
// the lost blocks — not deadlock. (TestBatchChaosAllHangTypedError is the
// same ladder on the pilot phase.)
func TestChaosHangsExhaustIntoTypedError(t *testing.T) {
	blocks := normalBlocks(t, 60000, 4, 9)
	_, addr := startReplica(t, blocks...)
	f := NewFaults(3)
	fault := fastFault()
	fault.CallTimeout = 50 * time.Millisecond
	fault.MaxRetries = 1
	view := chaosView(t, fault, f, addr)
	cfg := chaosConfig(4)
	ctx := context.Background()

	fp, err := view.FreezePilot(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.HangProb = 1
	_, err = view.EstimateFrozen(ctx, cfg, fp)
	var lost *BlocksLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want *BlocksLostError", err)
	}
	if len(lost.Blocks) == 0 {
		t.Fatal("typed error names no blocks")
	}
}

// partialBlocks builds a cluster whose lost half has a very different mean
// from the surviving half, so a wrong partial estimate is unmissable:
// blocks 0-3 ~ N(100, 5) survive, blocks 4-5 ~ N(200, 5) are lost.
func partialBlocks(t *testing.T) (surviving, lost []block.Block) {
	t.Helper()
	r := stats.NewRNG(31)
	mk := func(id int, mu float64) block.Block {
		data := make([]float64, 40000)
		for i := range data {
			data[i] = mu + 5*r.NormFloat64()
		}
		return block.NewMemBlock(id, data)
	}
	for id := 0; id < 4; id++ {
		surviving = append(surviving, mk(id, 100))
	}
	for id := 4; id < 6; id++ {
		lost = append(lost, mk(id, 200))
	}
	return surviving, lost
}

// TestChaosPermanentLossPartialAccounting loses a worker with no replica
// under AllowPartial, at the query surface: a statement whose pilot is in
// the plan cache must answer over exactly the reachable rows and declare the
// loss. (TestBatchChaosPartialAccounting pins the per-block accounting, and
// that a cold pilot refuses instead.)
func TestChaosPermanentLossPartialAccounting(t *testing.T) {
	surviving, lostBlocks := partialBlocks(t)
	_, addr1 := startReplica(t, surviving...)
	w2, addr2 := startReplica(t, lostBlocks...)
	cat := engine.NewCatalog()
	cat.RegisterSharded("t", workerTable(t, fastFault(), nil, addr1, addr2))
	eng := engine.New(cat)
	eng.EnablePlanCache(64)
	eng.SetAllowPartial(true)
	const sql = "SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 11"
	if _, err := eng.ExecuteSQL(sql); err != nil {
		t.Fatal(err)
	}
	w2.Close() // permanent: blocks 4 and 5 have no other home

	res, err := eng.ExecuteSQL(sql)
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
	// The estimate averages the reachable fraction (µ=100), not a diluted
	// blend with the lost µ=200 half.
	if res.Value < 99 || res.Value > 101 {
		t.Fatalf("partial estimate %v, want ≈100", res.Value)
	}
}

// TestChaosPermanentLossTypedError is the same loss without AllowPartial:
// a typed error naming the lost blocks, never a silently-diluted answer.
func TestChaosPermanentLossTypedError(t *testing.T) {
	surviving, lostBlocks := partialBlocks(t)
	_, addr1 := startReplica(t, surviving...)
	w2, addr2 := startReplica(t, lostBlocks...)

	view := chaosView(t, fastFault(), nil, addr1, addr2)
	w2.Close()

	_, err := runView(context.Background(), view, chaosConfig(11))
	var lost *BlocksLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want *BlocksLostError", err)
	}
	for _, id := range lost.Blocks {
		if id != 4 && id != 5 {
			t.Fatalf("error names block %d, only 4 and 5 were lost", id)
		}
	}
	if len(lost.Blocks) == 0 {
		t.Fatal("typed error names no blocks")
	}
}

// settled waits for count to fall to at most want — a connection or probe
// that has been told to stop may still be unwinding — and returns the count
// it settled at.
func settled(count func() int, want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := count()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosLeavesNoGoroutine: a worker killed mid-sample with a replica
// alive, and a worker lost for good under a degrading engine, leave nothing
// running and nothing open once the tables, their coordinators and the
// workers are closed — the goroutine count and, on Linux, the open file
// descriptor count settle back at their baselines.
func TestChaosLeavesNoGoroutine(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	linux := runtime.GOOS == "linux"
	var baseFDs int
	if linux {
		// The runtime's network poller opens its descriptors on first use
		// and keeps them: open it before counting.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		baseFDs = settled(openFDs, openFDs())
	}
	base := settled(runtime.NumGoroutine, runtime.NumGoroutine())

	// Killed mid-sample: the primary dies on its calculation batch.
	blocks := normalBlocks(t, 240000, 6, 17)
	w1, addr1 := startReplica(t, blocks...)
	w2, addr2 := startReplica(t, blocks...)
	f := NewFaults(99)
	f.Script(addr1, 2, func() { w1.Close() })
	st := workerTable(t, fastFault(), f.Wrap(dialTCP), addr1, addr2)
	if _, err := runView(context.Background(), st.View(), chaosConfig(21)); err != nil || f.Calls(addr2) == 0 {
		t.Fatalf("failover run: %v, %d calls on the replica", err, f.Calls(addr2))
	}
	st.Close()
	w1.Close()
	w2.Close()

	// Lost for good: the second query degrades to the surviving blocks.
	surviving, lostBlocks := partialBlocks(t)
	w3, addr3 := startReplica(t, surviving...)
	w4, addr4 := startReplica(t, lostBlocks...)
	lossy := workerTable(t, fastFault(), nil, addr3, addr4)
	cat := engine.NewCatalog()
	cat.RegisterSharded("t", lossy)
	eng := engine.New(cat)
	eng.EnablePlanCache(64)
	eng.SetAllowPartial(true)
	const sql = "SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 11"
	if _, err := eng.ExecuteSQL(sql); err != nil {
		t.Fatal(err)
	}
	w4.Close()
	if res, err := eng.ExecuteSQL(sql); err != nil || res.Partial == nil {
		t.Fatalf("partial run: %v, partial %+v", err, res.Partial)
	}
	lossy.Close()
	w3.Close()

	if got := settled(runtime.NumGoroutine, base); got > base {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines after the battery, %d before:\n%s", got, base, buf[:runtime.Stack(buf, true)])
	}
	if !linux {
		t.Log("open descriptors not checked: /proc/self/fd is Linux's")
		return
	}
	if got := settled(openFDs, baseFDs); got > baseFDs {
		t.Fatalf("%d open file descriptors after the battery, %d before", got, baseFDs)
	}
}

// TestFailoverReadmissionAfterReconnect kills the primary mid-query, runs
// a second query during the outage (served by the replica), restarts the
// worker on its old address, waits for the background probe to readmit it,
// and requires all three answers bit-identical to the healthy run.
func TestFailoverReadmissionAfterReconnect(t *testing.T) {
	blocks := normalBlocks(t, 240000, 6, 23)
	w1, addr1 := startReplica(t, blocks...)
	_, addr2 := startReplica(t, blocks...)
	cfg := chaosConfig(8)
	want := healthyResult(t, cfg, addr1, addr2)
	ctx := context.Background()

	f := NewFaults(77)
	f.Script(addr1, 2, func() { w1.Close() })
	st := workerTable(t, fastFault(), f.Wrap(dialTCP), addr1, addr2)
	view := st.View()

	// Query 1: primary dies on its calculation batch, replica takes over.
	res, err := runView(ctx, view, cfg)
	if err != nil {
		t.Fatalf("failover query: %v", err)
	}
	assertSameResult(t, want, res)

	// Query 2: during the outage — the primary is down and being probed.
	res, err = runView(ctx, view, cfg)
	if err != nil {
		t.Fatalf("outage query: %v", err)
	}
	assertSameResult(t, want, res)
	if st.Health()[addr1] {
		t.Fatal("dead worker reported healthy")
	}

	// Restart the worker on its old address; the probe readmits it.
	l, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr1, err)
	}
	t.Cleanup(func() { l.Close() })
	go w1.Serve(l)
	deadline := time.Now().Add(5 * time.Second)
	for !st.Health()[addr1] {
		if time.Now().After(deadline) {
			t.Fatal("worker never readmitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Query 3: back on the readmitted primary.
	res, err = runView(ctx, view, cfg)
	if err != nil {
		t.Fatalf("post-readmission query: %v", err)
	}
	assertSameResult(t, want, res)
}

// TestFailoverProbeRefusesImpostor kills the primary of two full replicas
// and starts, on its address, a worker serving the same block ids at a
// quarter of their length. The health probe must keep it out of placement —
// its inventory no longer matches its manifest entry — so a filtered query
// resumed from a pilot frozen before the kill, and a cold unfiltered one,
// keep answering the healthy bits from the replica.
func TestFailoverProbeRefusesImpostor(t *testing.T) {
	blocks := normalBlocks(t, 240000, 6, 31)
	w1, addr1 := startReplica(t, blocks...)
	_, addr2 := startReplica(t, blocks...)
	ctx := context.Background()
	cfg := chaosConfig(4)
	filter := core.IntervalFilter(80, 130)
	dials := &countingDial{inner: dialTCP}
	st := workerTable(t, fastFault(), dials.dial, addr1, addr2)
	view := st.View()
	fp, err := view.FreezeFilterPilot(ctx, cfg, filter)
	if err != nil {
		t.Fatal(err)
	}
	wantFiltered, err := view.EstimateFilteredFrozen(ctx, cfg, filter, fp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runView(ctx, view, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The primary dies; the next query fails over and starts the probe.
	w1.Close()
	res, err := runView(ctx, view, cfg)
	if err != nil {
		t.Fatalf("failover query: %v", err)
	}
	assertSameResult(t, want, res)

	short := make([]block.Block, len(blocks))
	for i, b := range blocks {
		short[i] = block.NewMemBlock(b.ID(), b.(*block.MemBlock).Data()[:10000])
	}
	impostor := NewWorker(short...)
	l, err := net.Listen("tcp", addr1)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr1, err)
	}
	t.Cleanup(func() { impostor.Close() })
	go impostor.Serve(l)
	reached := func() int {
		dials.mu.Lock()
		defer dials.mu.Unlock()
		return dials.dials[addr1]
	}
	before := reached()
	deadline := time.Now().Add(5 * time.Second)
	for reached() < before+3 && !st.Health()[addr1] { // three probes put to the impostor
		if time.Now().After(deadline) {
			t.Fatal("the probe never reached the impostor")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Health()[addr1] {
		t.Fatal("a worker whose inventory does not match its manifest entry was readmitted")
	}

	gotFiltered, err := view.EstimateFilteredFrozen(ctx, cfg, filter, fp)
	if err != nil {
		t.Fatalf("filtered query beside the impostor: %v", err)
	}
	if !reflect.DeepEqual(gotFiltered, wantFiltered) {
		t.Fatalf("filtered answer moved: AVG %v COUNT %v, healthy %v %v",
			gotFiltered.Avg, gotFiltered.Count, wantFiltered.Avg, wantFiltered.Count)
	}
	res, err = runView(ctx, view, cfg)
	if err != nil {
		t.Fatalf("cold query beside the impostor: %v", err)
	}
	assertSameResult(t, want, res)
}

// TestFailoverRetryBudgetBoundsCalls makes every calculation call fail and
// checks the per-query retry budget caps the total attempts — the
// anti-retry-storm circuit breaker: one first attempt for the worker's batch
// plus budget(5) is the ceiling; MaxRetries=100 alone would allow ~100.
// (TestFailoverRetryBudgetBoundsBatchCalls is the same bound on the pilot
// phase over two workers.)
func TestFailoverRetryBudgetBoundsCalls(t *testing.T) {
	blocks := normalBlocks(t, 60000, 4, 9)
	_, addr := startReplica(t, blocks...)
	f := NewFaults(7)
	fault := fastFault()
	fault.MaxRetries = 100
	fault.RetryBudget = 5
	fault.BaseBackoff = -1 // no sleeping: count pure attempts
	view := chaosView(t, fault, f, addr)
	cfg := chaosConfig(2)
	ctx := context.Background()

	fp, err := view.FreezePilot(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := f.Calls(addr)
	f.ErrorProb = 1
	_, err = view.EstimateFrozen(ctx, cfg, fp)
	var lost *BlocksLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want *BlocksLostError", err)
	}
	if calls := f.Calls(addr) - before; calls > 1+5 {
		t.Fatalf("retry budget leaked: %d calls, want ≤ 6", calls)
	}
}
