package isla

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"isla/internal/core"
)

// TestReconfigureDuringQueries is the regression test for the
// SetWorkers/SetBaseConfig data race: both used to write engine state that
// Query reads unsynchronized, so this test fails under -race on the old
// code. The engine now swaps the base config atomically behind a
// copy-on-read accessor.
func TestReconfigureDuringQueries(t *testing.T) {
	db := NewDB()
	db.RegisterSlice("t", normalData(50000, 1), 5)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.SetWorkers(i % 4)
			cfg := DefaultConfig()
			cfg.Seed = uint64(i)
			cfg.SampleFraction = 1 - float64(i%3)/10
			db.SetBaseConfig(cfg)
		}
	}()
	for i := 0; i < 25; i++ {
		if _, err := db.Query("SELECT AVG(v) FROM t WITH PRECISION 1 SEED 5"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestStressConcurrentQueries hammers a shared DB with 64 goroutines of
// mixed AVG/SUM/COUNT/EXACT queries while one goroutine keeps
// re-registering a table with identical data. Every answer must be
// bit-identical to a sequential run of the same statement (same seed ⇒
// same answer, with or without cache, mid-registration or not), and after
// the data actually changes, answers must match a fresh engine exactly —
// no cache-coherence violation across Register.
func TestStressConcurrentQueries(t *testing.T) {
	dataA := normalData(100000, 1)
	dataB := normalData(100000, 2)

	var queries []string
	for seed := 1; seed <= 4; seed++ {
		queries = append(queries,
			fmt.Sprintf("SELECT AVG(v) FROM a WITH PRECISION 0.5 SEED %d", seed),
			fmt.Sprintf("SELECT SUM(v) FROM a WITH PRECISION 0.5 SEED %d", seed),
			fmt.Sprintf("SELECT AVG(v) FROM b WITH PRECISION 0.8 SEED %d", seed),
		)
	}
	queries = append(queries,
		"SELECT COUNT(*) FROM a",
		"SELECT AVG(v) FROM b METHOD EXACT",
	)

	for _, cached := range []bool{false, true} {
		name := "cold-pilots"
		if cached {
			name = "plan-cache"
		}
		t.Run(name, func(t *testing.T) {
			newDB := func() *DB {
				db := NewDB()
				db.RegisterSlice("a", dataA, 8)
				db.RegisterSlice("b", dataB, 8)
				if cached {
					db.EnablePlanCache(64)
				}
				return db
			}

			// Golden answers from a sequential run on an identical DB.
			seq := newDB()
			want := make(map[string]float64, len(queries))
			for _, q := range queries {
				r, err := seq.Query(q)
				if err != nil {
					t.Fatalf("sequential %q: %v", q, err)
				}
				want[q] = r.Value
			}

			db := newDB()
			db.SetWorkers(2) // concurrency inside each query too

			stop := make(chan struct{})
			var reg sync.WaitGroup
			reg.Add(1)
			go func() {
				defer reg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Same data: the generation bumps but every answer
					// stays bit-identical.
					db.RegisterSlice("a", dataA, 8)
					time.Sleep(time.Millisecond)
				}
			}()

			var wg sync.WaitGroup
			for g := 0; g < 64; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < len(queries); i++ {
						q := queries[(g+i)%len(queries)]
						r, err := db.Query(q)
						if err != nil {
							t.Errorf("goroutine %d %q: %v", g, q, err)
							return
						}
						if r.Value != want[q] {
							t.Errorf("goroutine %d %q: got %v, sequential run got %v",
								g, q, r.Value, want[q])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			reg.Wait()

			// Now actually change the data: answers must match a fresh
			// engine over the new store, bit for bit.
			dataC := normalData(100000, 3)
			db.RegisterSlice("a", dataC, 8)
			freshDB := NewDB()
			freshDB.RegisterSlice("a", dataC, 8)
			if cached {
				freshDB.EnablePlanCache(64)
			}
			const probe = "SELECT AVG(v) FROM a WITH PRECISION 0.5 SEED 1"
			got, err := db.Query(probe)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := freshDB.Query(probe)
			if err != nil {
				t.Fatal(err)
			}
			if got.Value != fresh.Value || got.Samples != fresh.Samples {
				t.Fatalf("after re-register: %v/%d, fresh engine %v/%d",
					got.Value, got.Samples, fresh.Value, fresh.Samples)
			}
			if got.Value == want[probe] {
				t.Fatal("answer did not change with the data — stale store served")
			}
		})
	}
}

// stressOutcome is what a stress job's answer must reproduce bit for bit.
type stressOutcome struct {
	value    uint64
	samples  int64
	perBlock []core.BlockResult
}

// TestRecycledScratchStress: per-block query scratch is recycled between
// queries, so 8 goroutines sharing one engine over two stores of different
// block counts (16 and 5) mix cold statements (fresh seeds), warm ones,
// filtered AVG and COUNT, time-bound runs, online rounds and calculation
// phases kept in per-block destinations — and every answer, per-block
// results included where a caller keeps them, must equal its sequential run.
func TestRecycledScratchStress(t *testing.T) {
	stores := map[string]*Store{
		"big":   Partition(normalData(200_000, 11), 16),
		"small": Partition(normalData(60_000, 12), 5),
	}
	newDB := func(workers int) *DB {
		db := NewDB()
		for name, s := range stores {
			db.RegisterStore(name, s)
		}
		db.EnablePlanCache(0)
		db.SetWorkers(workers)
		return db
	}
	sql := func(stmt string) func(*DB) (stressOutcome, error) {
		return func(db *DB) (stressOutcome, error) {
			r, err := db.Query(stmt)
			return stressOutcome{value: math.Float64bits(r.Value), samples: r.Samples}, err
		}
	}
	ctx := context.Background()
	jobs := map[string]func(*DB) (stressOutcome, error){}
	const goroutines = 8
	for name, s := range stores {
		for seed := 1; seed <= 2; seed++ {
			jobs[fmt.Sprintf("warm %s %d", name, seed)] = sql(fmt.Sprintf("SELECT AVG(v) FROM %s WITH PRECISION 0.5 SEED %d", name, seed))
		}
		for g := range goroutines {
			for i := range 3 {
				seed := 1000 + 10*g + i
				jobs[fmt.Sprintf("cold %s g%d %d", name, g, i)] = sql(fmt.Sprintf("SELECT SUM(v) FROM %s WITH PRECISION 0.5 SEED %d", name, seed))
			}
		}
		jobs["filtered avg "+name] = sql(fmt.Sprintf("SELECT AVG(v) FROM %s WHERE v > 95 WITH PRECISION 0.5 SEED 3", name))
		jobs["filtered count "+name] = sql(fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE v < 110 WITH PRECISION 0.5 SEED 4", name))
		jobs["time-bound "+name] = func(*DB) (stressOutcome, error) {
			cfg := DefaultConfig()
			cfg.Seed, cfg.Workers = 6, 2
			r, err := EstimateTimeBound(ctx, s, cfg, time.Minute)
			return stressOutcome{math.Float64bits(r.Estimate), r.TotalSamples, r.PerBlock}, err
		}
		jobs["online "+name] = func(*DB) (stressOutcome, error) {
			cfg := DefaultConfig()
			cfg.Precision, cfg.Seed, cfg.Workers = 1, 7, 2
			sess, err := NewSession(s, cfg)
			if err != nil {
				return stressOutcome{}, err
			}
			var snap Snapshot
			for range 2 {
				if snap, err = sess.Refine(0.5); err != nil {
					return stressOutcome{}, err
				}
			}
			return stressOutcome{math.Float64bits(snap.Result.Estimate), snap.Result.TotalSamples, snap.PerBlock}, nil
		}
		// The engine's answers keep no per-block partials; a caller that
		// passes a destination gets them from the same pooled fold.
		jobs["partials "+name] = func(*DB) (stressOutcome, error) {
			cfg := DefaultConfig()
			cfg.Precision, cfg.Seed, cfg.Workers = 0.5, 5, 2
			src := core.LocalExecutor{S: s}.Source(cfg)
			fp, err := core.FreezePilot(ctx, src, cfg)
			if err != nil {
				return stressOutcome{}, err
			}
			blocks := make([]core.BlockResult, s.NumBlocks())
			r, err := core.EstimateFrozen(ctx, src, cfg, fp, blocks)
			return stressOutcome{math.Float64bits(r.Estimate), r.TotalSamples, blocks}, err
		}
	}
	names := make([]string, 0, len(jobs))
	for name := range jobs {
		names = append(names, name)
	}
	sort.Strings(names)

	want := make(map[string]stressOutcome, len(jobs))
	seq := newDB(0)
	for _, name := range names {
		o, err := jobs[name](seq)
		if err != nil {
			t.Fatalf("sequential %s: %v", name, err)
		}
		want[name] = o
	}

	db := newDB(2)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 * len(names) {
				name := names[(i+5*g)%len(names)]
				if strings.HasPrefix(name, "cold") && !strings.Contains(name, fmt.Sprintf(" g%d ", g)) {
					continue // another goroutine's fresh seeds (warm by its second pass)
				}
				got, err := jobs[name](db)
				if err != nil {
					t.Errorf("goroutine %d %s: %v", g, name, err)
					return
				}
				if !reflect.DeepEqual(got, want[name]) {
					t.Errorf("goroutine %d %s: %+v, sequential run %+v", g, name, got, want[name])
					return
				}
			}
		}()
	}
	wg.Wait()
}
