package main

import (
	"context"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// oneStmtMix is a mix of a single hot statement whose expected answer is
// want.
func oneStmtMix(want answer) (*mix, map[string]*verified) {
	m := &mix{}
	m.addClass("only", 1, "SELECT 1")
	return m, map[string]*verified{"SELECT 1": {want: want}}
}

func TestScheduleIsSeededAndFillsTheWindow(t *testing.T) {
	const n = 500
	dur := 2 * time.Second
	a, b, c := schedule(7, n, dur), schedule(7, n, dur), schedule(8, n, dur)
	if len(a) != n {
		t.Fatalf("%d arrivals, want %d", len(a), n)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[0] <= 0 || a[n-1] >= dur {
		t.Errorf("arrivals must be increasing inside (0, %v): first %v last %v", dur, a[0], a[n-1])
	}
	same, differs := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differs = differs || a[i] != c[i]
	}
	if !same || !differs {
		t.Errorf("the same seed must give the same schedule (%v) and another seed another (%v)", same, differs)
	}
}

// An open loop times a request from the instant it was due, so a server
// stall is charged to every request it delays — not only to the request
// that was being served when it happened.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	want := answer{Value: 1}
	m, known := oneStmtMix(want)
	const stall = 300 * time.Millisecond
	var calls atomic.Int64
	ask := func(context.Context, *stmt) (answer, error) {
		if calls.Add(1) <= clients { // the first request on every connection hangs
			time.Sleep(stall)
		}
		return want, nil
	}
	res := openLoop(context.Background(), ask, m, known, 1, 200, time.Second)
	if res.attempted != 200 || res.failed != 0 || res.ok != 200 {
		t.Fatalf("attempted %d ok %d failed %d, want 200/200/0", res.attempted, res.ok, res.failed)
	}
	// Arrivals due during the stall waited for it although their own
	// service took no time: roughly stall*rate of them, the earliest for
	// almost the whole stall.
	delayed := 0
	for _, ms := range res.latencies {
		if ms > 50 {
			delayed++
		}
	}
	if delayed < 30 {
		t.Errorf("%d requests saw more than 50 ms, want the ~50 due during the stall", delayed)
	}
	if p95 := percentile(sortedCopy(res.latencies), 95); p95 < 100 {
		t.Errorf("p95 %.1f ms does not show the stall; a closed-loop clock would have hidden it", p95)
	}
	if len(res.lateness) != 200 {
		t.Errorf("%d lateness samples, want one per arrival", len(res.lateness))
	}
}

// Arrivals the generator cannot launch — the queue holds one second's
// worth — are dropped and count as failed; wrong answers count as failed
// too.
func TestOpenLoopCountsDropsAndWrongAnswersAsFailed(t *testing.T) {
	want := answer{Value: 1}
	m, known := oneStmtMix(want)
	start := time.Now()
	ask := func(context.Context, *stmt) (answer, error) {
		if time.Since(start) < 1400*time.Millisecond {
			time.Sleep(100 * time.Millisecond) // 20 answers a second against 100 arrivals
		}
		return want, nil
	}
	res := openLoop(context.Background(), ask, m, known, 1, 100, 1500*time.Millisecond)
	if res.dropped == 0 {
		t.Error("a queue of one second's arrivals must overflow when the server keeps up with a fifth of them for 1.4 s")
	}
	if res.attempted != 150 || res.failed != res.dropped || res.ok+res.failed != res.attempted {
		t.Errorf("attempted %d ok %d failed %d dropped %d", res.attempted, res.ok, res.failed, res.dropped)
	}

	wrong := func(context.Context, *stmt) (answer, error) { return answer{Value: 1.0000000000000002}, nil }
	res = openLoop(context.Background(), wrong, m, known, 1, 100, 200*time.Millisecond)
	if res.failed != res.attempted || res.ok != 0 || res.firstErr == nil {
		t.Errorf("an answer one bit off must fail: attempted %d failed %d", res.attempted, res.failed)
	}
}
