package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/group"
)

// Table is one named column of data partitioned into blocks. A Table is
// immutable once returned by Lookup: re-registering a name produces a new
// Table with a higher generation rather than mutating the old one.
type Table struct {
	Name  string
	Store *block.Store
	// Groups indexes a grouped table by group key (nil for plain tables).
	// For grouped tables Store is the table's store, owning every
	// group's blocks, so ungrouped queries keep working.
	Groups *group.Store
	// Shard is the remote execution surface of a sharded table (nil for
	// local tables); when set, Store and Groups are nil and every query
	// runs through Shard's executors.
	Shard Sharded
	// Gen is the catalog-wide registration counter at the moment this
	// table version was registered. Caches key derived state (pilot
	// plans) by it so a replaced store can never serve stale state.
	Gen uint64
}

// Rows returns the table's row count, wherever the blocks live.
func (t *Table) Rows() int64 {
	if t.Shard != nil {
		return t.Shard.Rows()
	}
	return t.Store.TotalLen()
}

// Sharded is a table whose blocks live on remote shard workers — the
// engine-facing surface of the cluster package's ShardTable. The engine
// serves it through the same query path, plan cache, metrics classes and
// AllowPartial degradation as a local store; only operations that need the
// raw bytes locally (exact scans, baseline estimators, time-budgeted runs)
// refuse with ErrShardUnsupported.
type Sharded interface {
	// Rows is the table's row count (replicas counted once).
	Rows() int64
	// Executor is the whole-table execution surface.
	Executor() core.Executor
	// GroupColumn names the grouped column ("" when ungrouped).
	GroupColumn() string
	// GroupKeys returns the group keys, sorted; empty when ungrouped.
	GroupKeys() []string
	// GroupExecutor returns one group's execution surface.
	GroupExecutor(key string) (core.Executor, error)
}

// Catalog maps table names to stores. It is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	gen    uint64
	hooks  []func(name string)
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Register adds or replaces a table. Every registration bumps the
// catalog's generation counter, so the returned table version is
// distinguishable from any earlier one with the same name.
func (c *Catalog) Register(name string, store *block.Store) {
	c.register(&Table{Name: name, Store: store})
}

// RegisterGrouped adds or replaces a grouped table: GROUP BY queries run
// per group, ungrouped queries aggregate the whole table.
func (c *Catalog) RegisterGrouped(name string, g *group.Store) {
	c.register(&Table{Name: name, Store: g.Combined(), Groups: g})
}

// RegisterSharded adds or replaces a sharded table: queries run through
// sh's remote executors instead of a local store.
func (c *Catalog) RegisterSharded(name string, sh Sharded) {
	c.register(&Table{Name: name, Shard: sh})
}

// register stamps t with the next generation, publishes it and fires the
// hooks.
func (c *Catalog) register(t *Table) {
	c.mu.Lock()
	c.gen++
	t.Gen = c.gen
	c.tables[t.Name] = t
	hooks := c.hooks
	c.mu.Unlock()
	// Hooks run outside the lock: generation keying already guarantees
	// coherence, hooks only reclaim derived state promptly.
	for _, fn := range hooks {
		fn(t.Name)
	}
}

// OnRegister adds a callback invoked (outside the catalog lock) after
// every Register with the registered name. Used by the plan cache to drop
// superseded pilots.
func (c *Catalog) OnRegister(fn func(name string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hooks = append(c.hooks, fn)
}

// ErrUnknownTable is wrapped by Lookup failures so front ends can map
// them (e.g. to HTTP 404) with errors.Is.
var ErrUnknownTable = errors.New("engine: unknown table")

// ErrShardUnsupported is wrapped by refusals of operations that need a
// table's raw bytes on the serving node — exact scans, baseline
// estimators, time-budgeted runs — when the table is sharded.
var ErrShardUnsupported = errors.New("engine: not supported on sharded tables")

// Lookup returns the named table.
func (c *Catalog) Lookup(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownTable, name)
	}
	return t, nil
}

// Names returns the registered table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
