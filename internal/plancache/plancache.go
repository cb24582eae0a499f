// Package plancache caches frozen pre-estimation state across queries.
//
// The paper's pre-estimation module keeps only O(1) state per block
// (§VII), and the per-block pilot's draws depend on the table version, the
// group, the seed, the pilot size, the summary-pilot setting and the
// predicate alone — never on precision, confidence or sample fraction,
// which only rescale Eq. (1) afterwards. A pilot frozen once
// (core.FrozenPilot) can therefore answer every later query that agrees on
// those: the query re-derives its sampling plan from the frozen σ via
// Eq. (1) and skips the pilot phase entirely.
//
// A Key holds exactly those inputs. Entries hold whatever frozen
// pre-estimation state the caller derives — an unfiltered
// core.FrozenPilot, a predicate-filtered core.FilterPilot, or any future
// per-plan state; the cache itself is value-agnostic (entries are any).
// The table version is the table name plus the catalog generation, its
// one version identity: a registered table never changes its blocks, and
// the catalog bumps the generation whenever it replaces a table, so a
// re-registered table can never be served a stale pilot; superseded
// generations age out of the bounded LRU. Concurrent first queries for the
// same key are single-flighted: one caller runs the pilot, the rest wait
// and share it.
package plancache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
)

// Key identifies one cacheable pre-estimation.
type Key struct {
	// Table is the catalog name of the table.
	Table string
	// Generation is the catalog's registration counter for the table —
	// with Table, the table version's one identity. A registered table's
	// blocks never change; replacing it bumps the generation and orphans
	// every older entry.
	Generation uint64
	// Seed is the RNG seed the pilot consumed. Keying on it keeps the
	// bit-identical-per-seed contract: a hit resumes the exact stream a
	// cold run with that seed would have produced.
	Seed uint64
	// PilotSize is the config's pilot-size override (0 for the default
	// sizing): it sets how many draws the pilot spends per block, so pilots
	// frozen under different overrides resume different streams.
	PilotSize int64
	// SummaryPilot records which pre-estimation discipline built the
	// entry: a summary-served pilot consumes no RNG state while a sampled
	// pilot does, so the two freeze different resume points and must not
	// share entries.
	SummaryPilot bool
	// Grouped marks entries built for a single group of a grouped table.
	// It disambiguates the empty group key — a legal key — from the
	// table-level (whole table) entry, which also carries Group "".
	Grouped bool
	// Group is the group key the pilot belongs to for grouped queries
	// ("" for ungrouped — and also a legal group key; see Grouped): each
	// group of a grouped table is its own block store with its own
	// pre-estimation, so entries are per group.
	Group string
	// Predicate fingerprints the WHERE conjunction the pilot was built
	// under (the canonical query.PredicateString rendering; "" when
	// unfiltered). Filtered pilots freeze conditional statistics and a
	// different RNG resume point, so they never share entries with
	// unfiltered ones.
	Predicate string
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits counts lookups served from a cached pilot, including callers
	// that joined an in-flight build.
	Hits int64
	// Misses counts lookups that had to run the pilot.
	Misses int64
	// Evictions counts entries dropped by the LRU bound or Invalidate.
	Evictions int64
	// Entries is the current number of cached pilots.
	Entries int
}

// DefaultCapacity bounds the cache when the caller passes a non-positive
// capacity to New.
const DefaultCapacity = 128

// Cache is a bounded LRU of frozen pilots with single-flight population.
// It is safe for concurrent use.
type Cache struct {
	mu        sync.Mutex
	cap       int
	order     *list.List // front = most recently used; values are *entry
	entries   map[Key]*list.Element
	flights   map[Key]*flight
	hits      int64
	misses    int64
	evictions int64
}

type entry struct {
	key Key
	fp  any
}

type flight struct {
	done chan struct{}
	fp   any
	err  error
}

// New returns a cache bounded to capacity entries (DefaultCapacity if
// capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[Key]*list.Element),
		flights: make(map[Key]*flight),
	}
}

// Get returns the frozen pre-estimation state for key, building it with
// build on a miss. Callers own the value's concrete type: the state stored
// under a key is whatever its builder returns, and the keying discipline
// (Group, Predicate, SummaryPilot) keeps distinct pilot disciplines on
// distinct keys. The boolean reports a hit: true means the caller skipped
// the pilot phase (cached entry or joined another caller's in-flight
// build). Build errors are returned to every waiting caller — with
// hit=false and no Hits credit — and nothing is cached, except a context
// error: the build ran under its starter's context, and a joiner whose own
// ctx is still live builds afresh or joins the next flight instead. A
// caller that joins an in-flight build stops waiting when ctx is cancelled
// (the build itself keeps running for the caller that started it, like the
// cache-less pilot would).
func (c *Cache) Get(ctx context.Context, key Key, build func() (any, error)) (any, bool, error) {
	c.mu.Lock()
	for {
		if el, ok := c.entries[key]; ok {
			c.order.MoveToFront(el)
			c.hits++
			fp := el.Value.(*entry).fp
			c.mu.Unlock()
			return fp, true, nil
		}
		fl, ok := c.flights[key]
		if !ok {
			break
		}
		// Another caller is already running this pilot; share its result.
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if fl.err != nil && (ctx.Err() != nil ||
			!errors.Is(fl.err, context.Canceled) && !errors.Is(fl.err, context.DeadlineExceeded)) {
			return nil, false, fl.err
		}
		c.mu.Lock()
		if fl.err == nil {
			c.hits++
			c.mu.Unlock()
			return fl.fp, true, nil
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	c.misses++
	c.mu.Unlock()

	// A panicking build must still resolve the flight — otherwise every
	// later Get for this key would block on a done channel that never
	// closes. Waiters get an error; the panic resumes in the builder.
	var panicked any
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = r
				fl.err = fmt.Errorf("plancache: pilot build panicked: %v", r)
			}
		}()
		fl.fp, fl.err = build()
	}()
	close(fl.done)

	c.mu.Lock()
	delete(c.flights, key)
	if fl.err == nil {
		c.insert(key, fl.fp)
	}
	c.mu.Unlock()
	if panicked != nil {
		panic(panicked)
	}
	return fl.fp, false, fl.err
}

// insert adds an entry and enforces the LRU bound. Caller holds c.mu.
func (c *Cache) insert(key Key, fp any) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).fp = fp
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, fp: fp})
	for len(c.entries) > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.evictions++
	}
}

// Invalidate drops every entry for the named table, across generations.
// Generation keying already prevents stale reads; Invalidate releases the
// memory promptly when a store is replaced.
func (c *Cache) Invalidate(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.entries {
		if key.Table == table {
			c.order.Remove(el)
			delete(c.entries, key)
			c.evictions++
		}
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
	}
}

// Len returns the current number of cached pilots.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
