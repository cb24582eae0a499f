// Package isla is an iterative scheme for leverage-based approximate
// aggregation — a Go implementation of Han, Wang, Wan and Li (ICDE 2019).
//
// ISLA answers AVG (and derived SUM) queries on block-partitioned data from
// a small uniform sample. It maintains two estimators — a pilot "sketch"
// with a relaxed confidence interval and a leverage-based estimator that
// re-weights samples by their individual contribution — and iteratively
// modulates both toward the true mean until they agree. Only O(1) state per
// block is kept (count, Σa, Σa², Σa³ for the S and L boundary regions), so
// no sample is ever stored and the scheme extends naturally to online
// refinement and distributed execution.
//
// # Quick start
//
//	db := isla.NewDB()
//	db.RegisterSlice("sales", values, 10) // 10 blocks
//	res, err := db.Query("SELECT AVG(v) FROM sales WITH PRECISION 0.1")
//	fmt.Println(res.Value, res.CI.Lo(), res.CI.Hi())
//
// Lower-level entry points expose the estimator directly (Estimate), the
// online mode (NewSession), the time-bounded mode (EstimateTimeBound) and
// the MAX/MIN extension (EstimateExtreme).
//
// # Execution runtime
//
// Every execution mode — batch and parallel (Estimate), online (Session)
// and time-bounded (EstimateTimeBound) — runs one calculation phase: each
// block's fresh power sums, merged with an online session's stored ones and
// resolved by Algorithm 2, on a worker pool (internal/exec) with
// deterministic per-block seed derivation, in-order results and context
// cancellation. A time-bounded run is an online session racing a deadline:
// a fixed schedule of rounds, of which the budget decides only how many
// complete. A sharded table
// (OpenShardTable) runs the same pipeline — a WITH TIME statement's rounds
// included — with each phase scattered to its RPC workers. Because seeds are
// derived before dispatch, Config.Workers is purely a speed knob: the
// answer is bit-identical for every worker count, so the parallel mode
// (§VII-E) is Estimate with Config.Workers = -1 (one worker per CPU).
// Estimate and EstimateTimeBound take a context, as do
// Session.RefineContext and DB.QueryContext: cancelling it aborts a run
// mid-calculation.
package isla

import (
	"context"
	"time"

	"isla/internal/block"
	"isla/internal/cluster"
	"isla/internal/core"
	"isla/internal/engine"
	"isla/internal/extreme"
	"isla/internal/group"
	"isla/internal/ingest"
	"isla/internal/plancache"
	"isla/internal/query"
)

// Config holds every tunable of the ISLA estimator; see DefaultConfig for
// the paper's defaults. The relaxed-precision multiplier t_e = 3, the
// iteration threshold thr = 1e-6 and the 1 % |S|≈|L| balance band are the
// paper's fixed values, not settings.
type Config = core.Config

// Result is the outcome of an ISLA estimation run: the answer, its interval
// and pilot diagnostics — O(1) state whatever the number of blocks. The
// per-block partial answers stay inside the run; an online Snapshot keeps
// them, since a session keeps each block's sums anyway.
type Result = core.Result

// Store is a collection of blocks forming one logical column.
type Store = block.Store

// Block is one partition of a column.
type Block = block.Block

// QueryResult is the outcome of executing a SQL statement.
type QueryResult = engine.Result

// Query is a parsed statement.
type Query = query.Query

// Session is a resumable online aggregation (paper §VII-A).
type Session = core.Session

// Snapshot is the state of an online session after a refinement round.
type Snapshot = core.Snapshot

// ExtremeKind selects MAX or MIN for the extreme-value extension.
type ExtremeKind = extreme.Kind

// MAX and MIN aggregation kinds for EstimateExtreme.
const (
	MAX = extreme.Max
	MIN = extreme.Min
)

// ExtremeConfig tunes the extreme-value estimator.
type ExtremeConfig = extreme.Config

// ExtremeResult is an approximate MAX/MIN answer.
type ExtremeResult = extreme.Result

// DefaultConfig returns the paper's default experimental parameters
// (e=0.1, β=0.95, p1=0.5, p2=2, λ=0.8, η=0.5).
func DefaultConfig() Config { return core.DefaultConfig() }

// Partition splits data into b contiguous, near-equal in-memory blocks.
func Partition(data []float64, b int) *Store { return block.Partition(data, b) }

// OpenMode selects how block files are serviced: ModeMmap maps each file
// once and samples by direct slice gather (zero syscalls per draw), ModePread
// uses positioned reads on a shared handle, ModeAuto (the default) maps
// where the platform supports it and preads elsewhere. Estimates are
// bit-identical per seed in every mode.
type OpenMode = block.OpenMode

// Open modes for OpenFilesMode; ModeAuto is what OpenFiles uses.
const (
	ModeAuto  = block.ModeAuto
	ModeMmap  = block.ModeMmap
	ModePread = block.ModePread
)

// ParseOpenMode parses the flag spelling of an open mode ("auto", "mmap",
// "pread").
func ParseOpenMode(s string) (OpenMode, error) { return block.ParseOpenMode(s) }

// BlockSummary is the exact per-block statistics persisted in ISLB v2
// block-file footers (count, min, max, Σa, Σa²).
type BlockSummary = block.Summary

// OpenFiles opens previously written binary block files as a store in the
// default mode: memory-mapped where the platform supports it, positioned
// reads elsewhere. Call (*Store).Close to release the mappings/handles.
func OpenFiles(paths ...string) (*Store, error) {
	return OpenFilesMode(ModeAuto, paths...)
}

// OpenFilesMode is OpenFiles with an explicit open mode (mmap | pread).
func OpenFilesMode(mode OpenMode, paths ...string) (*Store, error) {
	blocks := make([]block.Block, 0, len(paths))
	for i, p := range paths {
		fb, err := block.Open(i, p, mode)
		if err != nil {
			// Release the handles already opened before reporting.
			block.NewStore(blocks...).Close()
			return nil, err
		}
		blocks = append(blocks, fb)
	}
	return block.NewStore(blocks...), nil
}

// WriteFiles writes data as b block files named <prefix>.000… in the ISLB
// v3 format (summary footers and payload checksums included) and returns a
// store over them. Files land atomically: a crash mid-write leaves either
// the old file or nothing, never a torn block.
func WriteFiles(prefix string, data []float64, b int) (*Store, error) {
	return block.WritePartitioned(prefix, data, b)
}

// Estimate runs the ISLA estimator on a store; cancelling ctx aborts the
// calculation phase promptly. cfg.Workers = -1 runs the blocks in parallel
// (paper §VII-E), one worker per CPU, bit-identical to a sequential run for
// the same seed.
func Estimate(ctx context.Context, s *Store, cfg Config) (Result, error) {
	return core.Estimate(ctx, s, cfg)
}

// NewSession starts an online aggregation over the store; call Refine to
// add samples and tighten the answer (paper §VII-A).
func NewSession(s *Store, cfg Config) (*Session, error) {
	return core.NewSession(core.LocalExecutor{S: s}.Source(cfg), cfg)
}

// EstimateExtreme approximates MAX or MIN with leverage-based per-block
// sampling rates (paper §VII-D).
func EstimateExtreme(s *Store, kind ExtremeKind, cfg ExtremeConfig) (ExtremeResult, error) {
	return extreme.Estimate(s, kind, cfg)
}

// ExactExtreme computes the true MAX or MIN with a full scan.
func ExactExtreme(s *Store, kind ExtremeKind) (float64, error) { return extreme.Exact(s, kind) }

// ParseQuery parses one statement of the query dialect.
func ParseQuery(sql string) (Query, error) { return query.Parse(sql) }

// TimeBoundResult is the outcome of a wall-clock-budgeted run (§VII-F).
type TimeBoundResult = core.TimeBoundResult

// EstimateTimeBound runs ISLA under a wall-clock budget instead of a
// precision target (§VII-F): an online session over the frozen pilot draws
// a fixed schedule of rounds, each doubling the draws, until the budget's
// deadline stops one; the answer is the last completed round's, over every
// block, with the half-width its draws earned. The first round always
// completes. Cancelling ctx aborts the run.
func EstimateTimeBound(ctx context.Context, s *Store, cfg Config, budget time.Duration) (TimeBoundResult, error) {
	return core.EstimateTimeBound(ctx, core.LocalExecutor{S: s}.Source(cfg), cfg, budget, nil)
}

// Worker serves blocks to a remote coordinator over net/rpc (§VII-E).
type Worker = cluster.Worker

// NewWorker returns an RPC worker owning the given blocks.
func NewWorker(blocks ...Block) *Worker { return cluster.NewWorker(blocks...) }

// ClusterConfig tunes a sharded table's fault tolerance: per-call
// deadlines, retry/backoff, the per-query retry budget and health probing.
// Pass to OpenShardTable; the zero value takes sensible defaults. Whether a
// query degrades when blocks are lost is not a transport setting: it is
// Config.AllowPartial (DB.SetAllowPartial), the one switch for local and
// sharded tables.
type ClusterConfig = cluster.Config

// BlocksLostError reports blocks whose every replica was unreachable; a
// query on a sharded table fails with it unless its Config.AllowPartial
// (DB.SetAllowPartial) lets the calculation phase degrade.
type BlocksLostError = cluster.BlocksLostError

// Partial accounts for a degraded run (AllowPartial): which blocks were lost
// or quarantined and how many rows the answer actually covers.
type Partial = core.Partial

// ShardManifest is the catalog of a sharded table: which worker address
// owns which block ids at which lengths, plus the per-group block sets of
// grouped tables. It is the source of truth workers are validated against
// when a sharded table is opened.
type ShardManifest = cluster.ShardManifest

// ShardEntry assigns blocks (with lengths) to one worker address within a
// shard manifest; the same block id in two entries declares a replica.
type ShardEntry = cluster.ShardEntry

// ShardGroup assigns blocks to one group key within a shard manifest.
type ShardGroup = cluster.ShardGroup

// ShardTable is a sharded table: workers admitted per a shard manifest,
// queryable through the engine with pushed-down filtered, grouped and
// pilot execution. Answers are bit-identical per seed to a single-node
// run over the same blocks.
type ShardTable = cluster.ShardTable

// LoadShardManifest reads and validates a shard manifest file.
func LoadShardManifest(path string) (*ShardManifest, error) {
	return cluster.LoadShardManifest(path)
}

// ShardManifestFromWorkers reads the manifest of the table the workers at
// addrs serve between them from their own inventories: one shard entry per
// address, and the same block id on two addresses declares a replica (the
// earlier address is its primary); one address given twice is refused.
// fault supplies the per-call deadline.
func ShardManifestFromWorkers(addrs []string, fault ClusterConfig) (*ShardManifest, error) {
	return cluster.ManifestFromWorkers(addrs, fault, nil)
}

// OpenShardTable validates the manifest, connects to every shard worker
// and returns the queryable table. fault tunes the transport's fault
// tolerance (zero value: sensible defaults); the transport reads nothing
// from cfg, since every query brings its own configuration. Close the table
// to release the connections.
func OpenShardTable(man *ShardManifest, cfg Config, fault ClusterConfig) (*ShardTable, error) {
	return cluster.NewShardTable(man, cfg, fault, nil)
}

// RegisterSharded registers a shard table under name: queries scatter to
// the owning workers and gather per-block statistics, through the same
// plan cache and degradation policy as local tables, time-budgeted runs
// included. Exact scans and baseline estimators refuse on sharded tables.
func (db *DB) RegisterSharded(name string, st *ShardTable) {
	db.engine.Catalog.RegisterSharded(name, st)
}

// GroupRow is one (group key, value) observation for grouped aggregation.
type GroupRow = group.Row

// GroupResult is one group's answer within a GROUP BY statement: the
// element type of QueryResult.Groups.
type GroupResult = engine.GroupResult

// GroupStore is a grouped column: one block store owning every group's
// blocks (table-wide block ids), and per group key a view over its range.
type GroupStore = group.Store

// BuildGroups partitions rows into a grouped store whose group column is
// named column (what a SQL GROUP BY must reference), with up to
// blocksPerGroup blocks per group.
func BuildGroups(column string, rows []GroupRow, blocksPerGroup int) (*GroupStore, error) {
	return group.BuildColumn(column, rows, blocksPerGroup)
}

// WriteGroupFiles writes rows as per-group partitioned ISLB block files
// (current format, with summary footers and payload checksums) under dir
// plus a manifest.json describing them, and returns the manifest path. OpenGroupManifest (or islacli/islaserv -loadgroup) serves grouped
// queries from those files — including summary-served pre-estimation,
// since every block carries a persisted summary footer.
func WriteGroupFiles(dir, column string, rows []GroupRow, blocksPerGroup int) (string, error) {
	return group.WriteFiles(dir, column, rows, blocksPerGroup)
}

// OpenGroupManifest opens a grouped table previously written by
// WriteGroupFiles in the given open mode. Close the store to release the
// mappings/handles.
func OpenGroupManifest(path string, mode OpenMode) (*GroupStore, error) {
	return group.OpenManifest(path, mode)
}

// LoadText reads a one-value-per-line text file into a partitioned store
// (the paper's ".txt document" block format); unparsable lines are skipped.
func LoadText(path string, blocks int) (*Store, error) { return ingest.LoadText(path, blocks) }

// LoadCSV reads one numeric CSV column (by header name, or the first column
// of header-less data when column is "") into a partitioned store;
// unparsable entries are skipped.
func LoadCSV(path, column string, blocks int) (*Store, error) {
	return ingest.LoadCSV(path, column, blocks)
}

// DB is a catalog of named tables with a query engine — the paper's system
// front end.
type DB struct {
	engine *engine.Engine
}

// NewDB returns an empty database with the default configuration.
func NewDB() *DB {
	return &DB{engine: engine.New(engine.NewCatalog())}
}

// SetBaseConfig atomically replaces the engine's base estimator
// configuration; query options (PRECISION, CONFIDENCE, …) still override
// per statement. Safe to call while queries are executing: in-flight
// queries keep the config they started with.
func (db *DB) SetBaseConfig(cfg Config) { db.engine.SetBaseConfig(cfg) }

// BaseConfig returns a copy of the engine's base configuration.
func (db *DB) BaseConfig() Config { return db.engine.BaseConfig() }

// EnablePlanCache attaches a pilot-plan cache of the given capacity (0
// for the default). Repeat ISLA queries on the same table, seed and pilot
// size, at any precision, confidence or sample fraction, then skip the
// pre-estimation pilot entirely; re-registering a table invalidates its
// cached pilots. The cache only
// skips work: with it or without it, a statement returns the same bits.
func (db *DB) EnablePlanCache(capacity int) { db.engine.EnablePlanCache(capacity) }

// DisablePlanCache detaches the plan cache; queries run cold pilots again.
func (db *DB) DisablePlanCache() { db.engine.DisablePlanCache() }

// PlanCacheStats is a snapshot of the plan cache's counters.
type PlanCacheStats = plancache.Stats

// PlanCacheStats returns the cache counters, or false when no cache is
// attached.
func (db *DB) PlanCacheStats() (PlanCacheStats, bool) {
	c := db.engine.PlanCache()
	if c == nil {
		return PlanCacheStats{}, false
	}
	return c.Stats(), true
}

// RegisterStore registers a block store as a named table.
func (db *DB) RegisterStore(name string, s *Store) { db.engine.Catalog.Register(name, s) }

// RegisterGrouped registers a grouped store as a named table: GROUP BY
// queries answer per group, ungrouped queries aggregate the whole table.
func (db *DB) RegisterGrouped(name string, g *GroupStore) {
	db.engine.Catalog.RegisterGrouped(name, g)
}

// RegisterGroupedRows partitions (group, value) rows into a grouped table
// whose group column is named column.
func (db *DB) RegisterGroupedRows(name, column string, rows []GroupRow, blocksPerGroup int) error {
	g, err := group.BuildColumn(column, rows, blocksPerGroup)
	if err != nil {
		return err
	}
	db.engine.Catalog.RegisterGrouped(name, g)
	return nil
}

// RegisterSlice partitions data into b blocks and registers it as a table.
func (db *DB) RegisterSlice(name string, data []float64, b int) {
	db.engine.Catalog.Register(name, block.Partition(data, b))
}

// Tables returns the registered table names, sorted.
func (db *DB) Tables() []string { return db.engine.Catalog.Names() }

// Query parses and executes one statement.
func (db *DB) Query(sql string) (QueryResult, error) { return db.engine.ExecuteSQL(sql) }

// QueryContext parses and executes one statement under ctx; cancelling it
// aborts the estimation mid-calculation.
func (db *DB) QueryContext(ctx context.Context, sql string) (QueryResult, error) {
	return db.engine.ExecuteSQLContext(ctx, sql)
}

// Execute runs an already-parsed query.
func (db *DB) Execute(q Query) (QueryResult, error) { return db.engine.Execute(q) }

// ExecuteContext runs an already-parsed query under ctx.
func (db *DB) ExecuteContext(ctx context.Context, q Query) (QueryResult, error) {
	return db.engine.ExecuteContext(ctx, q)
}

// SetWorkers sets the exec-runtime concurrency for every estimation the
// database runs: 0 sequential, negative one worker per CPU, positive
// as-is. Purely a speed knob — answers do not depend on it. Safe to call
// while queries are executing.
func (db *DB) SetWorkers(n int) { db.engine.SetWorkers(n) }

// CorruptBlockError reports a block whose bytes fail integrity checking:
// a torn header, an impossible size, a footer or payload checksum
// mismatch, or an access to a quarantined block.
type CorruptBlockError = block.CorruptBlockError

// QuarantinedError reports a query refused because quarantined blocks
// make the full answer unavailable (and degradation is off, or the
// statement cannot degrade soundly).
type QuarantinedError = core.QuarantinedError

// ScrubReport is one store's integrity-scrub outcome: blocks verified,
// blocks skipped (no payload checksum to check), and what failed.
type ScrubReport = block.ScrubReport

// TableScrub is one table's report from DB.Scrub.
type TableScrub = engine.TableScrub

// Scrub verifies every registered table's payload checksums against the
// on-disk bytes and quarantines whatever fails, returning per-table
// reports. Quarantined blocks stop answering queries: statements refuse
// with *QuarantinedError unless SetAllowPartial is on and the statement
// can degrade soundly. workers bounds the scrub's concurrency (0
// sequential, negative one per CPU).
func (db *DB) Scrub(ctx context.Context, workers int) ([]TableScrub, error) {
	return db.engine.Scrub(ctx, workers)
}

// SetAllowPartial switches degraded answering for tables with quarantined
// blocks, and for sharded tables whose blocks lost every replica:
// unfiltered ISLA estimates run over the intact blocks and report the
// coverage in Result.Partial, instead of refusing. Statements whose
// statistics cannot be rescaled soundly (filters, baseline methods,
// time-bounded runs, a sharded pilot) still refuse. Safe to call while
// queries execute.
func (db *DB) SetAllowPartial(v bool) { db.engine.SetAllowPartial(v) }

// QuarantinedBlocks maps each damaged table to its quarantined block ids;
// the map is empty while every table is healthy.
func (db *DB) QuarantinedBlocks() map[string][]int { return db.engine.QuarantinedBlocks() }
