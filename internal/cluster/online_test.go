package cluster

// Online and time-bound runs over shards: a session's rounds are calculation
// phases whose requests carry the previous round's sums as Prior, and a shard
// source serves them as it serves a query's one calculation phase, so every
// round answers the local bits — over every layout, and across a failover.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"isla/internal/core"
	"isla/internal/engine"
	"isla/internal/workload"
)

// TestTimeBoundOnShards: a WITH TIME statement whose budget completes the
// whole schedule answers the local engine's bits over every layout of
// shardLayouts, cold and warm, with all five rounds run on both sides.
func TestTimeBoundOnShards(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 160000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	local := localEngine(t, s)
	queries := []string{
		"SELECT AVG(v) FROM t WITH TIME 60 SEED 7",
		"SELECT SUM(v) FROM t WITH TIME 60 SEED 12",
	}
	for name, layout := range shardLayouts(s.NumBlocks()) {
		man, _ := startShards(t, s.Blocks(), layout)
		remote := shardEngine(t, man, nil)
		for _, sql := range queries {
			for pass := 0; pass < 2; pass++ {
				want, err := local.ExecuteSQL(sql)
				if err != nil {
					t.Fatalf("local %s: %v", sql, err)
				}
				got, err := remote.ExecuteSQL(sql)
				if err != nil {
					t.Fatalf("%s, %s: %v", name, sql, err)
				}
				assertSameAnswer(t, name+": "+sql, want, got)
				if want.Rounds != 5 || got.Rounds != 5 || got.Truncated || want.Truncated {
					t.Fatalf("%s, %s: rounds %d (truncated %v) sharded, %d (truncated %v) local; want all 5",
						name, sql, got.Rounds, got.Truncated, want.Rounds, want.Truncated)
				}
				if got.AchievedPrecision != want.AchievedPrecision {
					t.Fatalf("%s, %s: precision %v vs %v", name, sql, got.AchievedPrecision, want.AchievedPrecision)
				}
			}
		}
	}
}

// TestSessionOnShards: Session.Refine rounds 1–3 over a shard source answer
// the bits of a session over the local store — snapshot and per-block
// partials — over every layout; on the replicated ones the primary of the
// first and last blocks dies during round 2 and the standby owners take
// over, their replies merging with the round-1 sums once.
func TestSessionOnShards(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 160000, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(19)
	fractions := []float64{0.5, 0.25, 1}
	want := refineRounds(t, core.LocalExecutor{S: s}.Source(cfg), cfg, fractions)
	for name, layout := range shardLayouts(s.NumBlocks()) {
		man, workers := startShards(t, s.Blocks(), layout)
		f := NewFaults(5)
		if strings.HasPrefix(name, "replicated") {
			// Worker 0's calls: the pilot, round 1, round 2.
			f.Script(man.Shards[0].Addr, 3, func() { workers[0].Close() })
		}
		st := shardTable(t, man, fastFault(), f.Wrap(dialTCP))
		got := refineRounds(t, st.Source(cfg), cfg, fractions)
		if strings.HasPrefix(name, "replicated") && st.Health()[man.Shards[0].Addr] {
			t.Fatalf("%s: the primary is still admitted: the kill did not land mid-session", name)
		}
		for r := range want {
			if !reflect.DeepEqual(got[r], want[r]) {
				t.Fatalf("%s: round %d moved:\n sharded %+v\n local   %+v", name, r+1, got[r], want[r])
			}
		}
	}
}

// refineRounds runs a session over src, one round per fraction.
func refineRounds(t *testing.T, src core.BlockSource, cfg core.Config, fractions []float64) []core.Snapshot {
	t.Helper()
	sess, err := core.NewSession(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []core.Snapshot
	for _, f := range fractions {
		snap, err := sess.Refine(f)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	return snaps
}

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
