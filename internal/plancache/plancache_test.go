package plancache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"isla/internal/core"
)

var ctx = context.Background()

func key(table string, gen uint64) Key {
	return Key{Table: table, Generation: gen, Seed: 1}
}

func pilot(sigma float64) core.FrozenPilot {
	return core.FrozenPilot{Base: core.Pilot{Sigma: sigma}}
}

// sigmaOf unwraps the test pilots stored through the value-agnostic API.
func sigmaOf(v any) float64 {
	if v == nil {
		return 0
	}
	return v.(core.FrozenPilot).Base.Sigma
}

func TestGetMissThenHit(t *testing.T) {
	c := New(4)
	builds := 0
	build := func() (any, error) {
		builds++
		return pilot(7), nil
	}
	fp, hit, err := c.Get(ctx, key("t", 1), build)
	if err != nil || hit {
		t.Fatalf("first get: hit=%v err=%v", hit, err)
	}
	if sigmaOf(fp) != 7 {
		t.Fatalf("sigma = %v", sigmaOf(fp))
	}
	fp, hit, err = c.Get(ctx, key("t", 1), build)
	if err != nil || !hit {
		t.Fatalf("second get: hit=%v err=%v", hit, err)
	}
	if sigmaOf(fp) != 7 || builds != 1 {
		t.Fatalf("sigma=%v builds=%d", sigmaOf(fp), builds)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGenerationMiss(t *testing.T) {
	c := New(4)
	build := func() (any, error) { return pilot(1), nil }
	c.Get(ctx, key("t", 1), build)
	if _, hit, _ := c.Get(ctx, key("t", 2), build); hit {
		t.Fatal("newer generation must not hit an older entry")
	}
}

func TestSingleFlight(t *testing.T) {
	c := New(4)
	var builds atomic.Int64
	release := make(chan struct{})
	const callers = 32
	var wg sync.WaitGroup
	var hits atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fp, hit, err := c.Get(ctx, key("t", 1), func() (any, error) {
				builds.Add(1)
				<-release // hold every other caller in the flight
				return pilot(3), nil
			})
			if err != nil {
				t.Error(err)
			}
			if sigmaOf(fp) != 3 {
				t.Errorf("sigma = %v", sigmaOf(fp))
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	// Wait until the single build is in flight, then release it.
	for builds.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("builder ran %d times, want 1", builds.Load())
	}
	if hits.Load() != callers-1 {
		t.Fatalf("hits = %d, want %d", hits.Load(), callers-1)
	}
}

func TestBuildErrorNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	if _, _, err := c.Get(ctx, key("t", 1), func() (any, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The failure must not be cached: the next Get builds again.
	_, hit, err := c.Get(ctx, key("t", 1), func() (any, error) {
		return pilot(2), nil
	})
	if err != nil || hit {
		t.Fatalf("retry: hit=%v err=%v", hit, err)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	build := func() (any, error) { return pilot(1), nil }
	c.Get(ctx, key("a", 1), build)
	c.Get(ctx, key("b", 1), build)
	c.Get(ctx, key("a", 1), build) // touch a so b is the LRU victim
	c.Get(ctx, key("c", 1), build) // evicts b
	if _, hit, _ := c.Get(ctx, key("a", 1), build); !hit {
		t.Fatal("recently used entry evicted")
	}
	if _, hit, _ := c.Get(ctx, key("b", 1), build); hit {
		t.Fatal("LRU victim still cached")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(8)
	build := func() (any, error) { return pilot(1), nil }
	for gen := uint64(1); gen <= 3; gen++ {
		c.Get(ctx, key("t", gen), build)
	}
	c.Get(ctx, key("other", 1), build)
	c.Invalidate("t")
	if c.Len() != 1 {
		t.Fatalf("len = %d after invalidate", c.Len())
	}
	if _, hit, _ := c.Get(ctx, key("other", 1), build); !hit {
		t.Fatal("unrelated table invalidated")
	}
}

// TestJoinerContextCancel: a caller that joined an in-flight build stops
// waiting when its context is cancelled; the build completes for the
// caller that started it and is cached for the next lookup.
func TestJoinerContextCancel(t *testing.T) {
	c := New(4)
	inFlight := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, key("t", 1), func() (any, error) {
			close(inFlight)
			<-release
			return pilot(5), nil
		})
		leaderDone <- err
	}()
	<-inFlight

	jctx, cancel := context.WithCancel(ctx)
	joinerDone := make(chan error, 1)
	go func() {
		_, hit, err := c.Get(jctx, key("t", 1), func() (any, error) {
			t.Error("joiner must not build")
			return nil, nil
		})
		if hit {
			t.Error("cancelled joiner reported a hit")
		}
		joinerDone <- err
	}()
	cancel()
	if err := <-joinerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("joiner err = %v, want context.Canceled", err)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c.Get(ctx, key("t", 1), func() (any, error) {
		return nil, errors.New("should be cached")
	}); !hit {
		t.Fatal("leader's build was not cached")
	}
}

// waitJoiners waits until n goroutines wait in Get on another caller's
// flight: parked in its select, where a builder is parked in its build.
func waitJoiners(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		joined := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, "plancache.(*Cache).Get(") {
				joined++
			}
		}
		if joined >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d joiners waiting on the flight", joined, n)
		}
	}
}

// TestJoinerOutlivesBuilderCancel: the builder's context ending mid-build is
// the builder's failure, not its joiners': a joiner whose own context is
// live builds afresh, and its pilot is cached.
func TestJoinerOutlivesBuilderCancel(t *testing.T) {
	c := New(4)
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	inFlight := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Get(bctx, key("t", 1), func() (any, error) {
			close(inFlight)
			<-bctx.Done()
			return nil, bctx.Err()
		})
		leaderDone <- err
	}()
	<-inFlight

	type outcome struct {
		v   any
		hit bool
		err error
	}
	joinerDone := make(chan outcome, 1)
	go func() {
		v, hit, err := c.Get(ctx, key("t", 1), func() (any, error) { return pilot(7), nil })
		joinerDone <- outcome{v, hit, err}
	}()
	waitJoiners(t, 1)
	cancel()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("builder err = %v, want context.Canceled", err)
	}
	if got := <-joinerDone; got.err != nil || got.hit || sigmaOf(got.v) != 7 {
		t.Fatalf("live joiner: σ %v, hit %v, err %v; want its own build", sigmaOf(got.v), got.hit, got.err)
	}
	if v, hit, _ := c.Get(ctx, key("t", 1), func() (any, error) {
		return nil, errors.New("should be cached")
	}); !hit || sigmaOf(v) != 7 {
		t.Fatal("the joiner's build was not cached")
	}
}

// TestFailedBuildJoinersNotHits: joiners of a failing flight get the error
// with hit=false and no Hits credit.
func TestFailedBuildJoinersNotHits(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	inFlight := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		c.Get(ctx, key("t", 1), func() (any, error) {
			close(inFlight)
			<-release
			return nil, boom
		})
	}()
	<-inFlight

	const joiners = 4
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A goroutine scheduled after the flight fails becomes its own
			// (also failing) builder; either way no hit may be reported.
			_, hit, err := c.Get(ctx, key("t", 1), func() (any, error) {
				return nil, boom
			})
			if hit || !errors.Is(err, boom) {
				t.Errorf("joiner: hit=%v err=%v", hit, err)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // give the joiners time to join the flight
	close(release)
	wg.Wait()
	<-leaderDone
	if st := c.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("stats after failed flight: %+v", st)
	}
}

// TestBuildPanicUnwedgesKey: a panicking build resolves the flight (the
// waiters get an error, the key stays usable) and the panic still reaches
// the builder's goroutine.
func TestBuildPanicUnwedgesKey(t *testing.T) {
	c := New(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("build panic was swallowed")
			}
		}()
		c.Get(ctx, key("t", 1), func() (any, error) {
			panic("pilot exploded")
		})
	}()
	// The key must not be wedged: the next Get runs a fresh build.
	fp, hit, err := c.Get(ctx, key("t", 1), func() (any, error) {
		return pilot(9), nil
	})
	if err != nil || hit || sigmaOf(fp) != 9 {
		t.Fatalf("after panic: fp=%v hit=%v err=%v", sigmaOf(fp), hit, err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				table := fmt.Sprintf("t%d", i%4)
				fp, _, err := c.Get(ctx, key(table, uint64(i%3)), func() (any, error) {
					return pilot(float64(i%4 + 1)), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if sigmaOf(fp) < 1 || sigmaOf(fp) > 4 {
					t.Errorf("sigma = %v", sigmaOf(fp))
					return
				}
				if i%50 == 0 {
					c.Invalidate(table)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("len = %d exceeds capacity", c.Len())
	}
}

// Distinct group keys and predicate fingerprints map to distinct entries:
// a grouped table caches one pilot per group, and filtered pilots never
// share state with unfiltered ones.
func TestGroupAndPredicateKeying(t *testing.T) {
	c := New(8)
	builder := func(sigma float64) func() (any, error) {
		return func() (any, error) { return pilot(sigma), nil }
	}
	base := key("t", 1)
	east := base
	east.Group = "east"
	west := base
	west.Group = "west"
	filtered := east
	filtered.Predicate = "v > 10"

	for i, k := range []Key{base, east, west, filtered} {
		if _, hit, err := c.Get(ctx, k, builder(float64(i+1))); err != nil || hit {
			t.Fatalf("key %d: hit=%v err=%v", i, hit, err)
		}
	}
	for i, k := range []Key{base, east, west, filtered} {
		fp, hit, err := c.Get(ctx, k, builder(0))
		if err != nil || !hit {
			t.Fatalf("key %d revisit: hit=%v err=%v", i, hit, err)
		}
		if sigmaOf(fp) != float64(i+1) {
			t.Fatalf("key %d returned entry %v", i, sigmaOf(fp))
		}
	}
	// Invalidate drops every entry of the table, across groups/predicates.
	c.Invalidate("t")
	if c.Len() != 0 {
		t.Fatalf("len = %d after invalidate", c.Len())
	}
}
