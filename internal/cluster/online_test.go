package cluster

// Online and time-bound runs over shards: a session's rounds are calculation
// phases whose requests carry the previous round's sums as Prior, and a shard
// source serves them as it serves a query's one calculation phase. That
// every round, whole or fractional, answers the local bits over every layout
// and across a failover, and that a WITH TIME statement does, is the root
// package's TestInvarianceMatrix (rows refine, refine-fractions, time-avg and
// time-sum); here are the query-wide retry budget and a time-bound run's lost
// block.

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"isla/internal/engine"
)

// TestFailoverRetryBudgetSpansPhases: the retry budget is the query's, not a
// phase's. A cold sharded query's pilot spends two of its five retries, and
// then every calculation call fails: the query stops at one first attempt
// per batch — one pilot batch, one calculation batch — plus the five
// retries, 7 calls in all, where a budget per phase would allow 9.
func TestFailoverRetryBudgetSpansPhases(t *testing.T) {
	_, addr := startReplica(t, normalBlocks(t, 60000, 4, 9)...)
	f := NewFaults(7)
	f.ErrorProb = 1                               // the pilot's first two attempts fail…
	f.Script(addr, 2, func() { f.ErrorProb = 0 }) // …its third succeeds…
	f.Script(addr, 3, func() { f.ErrorProb = 1 }) // …and every later call fails.
	fault := fastFault()
	fault.MaxRetries = 100
	fault.RetryBudget = 5
	fault.BaseBackoff = -1 // no sleeping: count pure attempts
	cat := engine.NewCatalog()
	cat.RegisterSharded("t", workerTable(t, fault, f.Wrap(dialTCP), addr))
	eng := engine.New(cat)
	eng.EnablePlanCache(64)

	_, err := eng.ExecuteSQL("SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 2")
	var lost *BlocksLostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want *BlocksLostError", err)
	}
	if calls := f.Calls(addr); calls != 2+5 {
		t.Fatalf("%d calls, want 7: one per phase's batch plus the query's retry budget", calls)
	}
}

// TestTimeBoundOnShardsFailsOnLostBlock: a time-bound run keeps no partial
// accounting, so on a sharded table that lets its queries degrade a block
// with no live replica fails the run with the typed error naming it.
func TestTimeBoundOnShardsFailsOnLostBlock(t *testing.T) {
	surviving, lostBlocks := partialBlocks(t)
	_, addr1 := startReplica(t, surviving...)
	w2, addr2 := startReplica(t, lostBlocks...)
	cat := engine.NewCatalog()
	cat.RegisterSharded("t", workerTable(t, fastFault(), nil, addr1, addr2))
	eng := engine.New(cat)
	eng.EnablePlanCache(64)
	eng.SetAllowPartial(true)
	const sql = "SELECT AVG(v) FROM t WITH TIME 60 SEED 11"
	if _, err := eng.ExecuteSQL(sql); err != nil {
		t.Fatal(err)
	}
	w2.Close() // the pilot is cached: the rounds meet the loss

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := eng.ExecuteSQLContext(ctx, sql)
	var lost *BlocksLostError
	if !errors.As(err, &lost) || !reflect.DeepEqual(lost.Blocks, []int{4, 5}) {
		t.Fatalf("err = %v, want *BlocksLostError naming blocks 4 and 5", err)
	}
}
