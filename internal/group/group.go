// Package group holds grouped tables, the storage side of the GROUP BY
// extension the paper names in §VII-D. Rows are (group key, value) pairs;
// each group becomes its own block store (partitioned across blocks so
// per-group partial answers still exist), plus a combined view over every
// block for ungrouped statements on the same table. The package builds,
// persists, opens and scrubs such tables; it executes nothing — a SQL
// GROUP BY runs through the engine, which applies the one ISLA pipeline to
// each group in turn.
//
// Grouped tables live either in memory (Build over rows) or on disk as
// per-group partitioned ISLB files described by a manifest (WriteFiles /
// OpenManifest), so mmap- and pread-backed blocks with persisted summary
// footers serve grouped queries — including SummaryPilot pre-estimation —
// exactly like ungrouped ones.
package group

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"isla/internal/block"
	"isla/internal/fsio"
	"isla/internal/stats"
)

// Row is one (group, value) observation.
type Row struct {
	Group string
	Value float64
}

// Store is a grouped column: one block store per group key, plus a
// combined view over every block for ungrouped queries on the same table.
type Store struct {
	column   string
	groups   map[string]*block.Store
	keys     []string // sorted
	total    int64
	combined *block.Store
}

// NewStore assembles a grouped store from per-group block stores. column
// names the group column a SQL GROUP BY must reference ("" accepts any).
// The empty string is a valid group key.
func NewStore(column string, groups map[string]*block.Store) (*Store, error) {
	if len(groups) == 0 {
		return nil, errors.New("group: no groups")
	}
	g := &Store{column: column, groups: groups, keys: make([]string, 0, len(groups))}
	for k := range groups {
		g.keys = append(g.keys, k)
	}
	sort.Strings(g.keys)
	blocks := make([]block.Block, 0, len(groups))
	for _, k := range g.keys {
		s := groups[k]
		g.total += s.TotalLen()
		for _, b := range s.Blocks() {
			blocks = append(blocks, reidBlock{Block: b, id: len(blocks)})
		}
	}
	g.combined = block.NewStore(blocks...)
	return g, nil
}

// Build partitions rows into per-group in-memory stores with the given
// block count per group (clamped to the group size, so a 2-row group gets
// 2 blocks, never empty ones).
func Build(rows []Row, blocks int) (*Store, error) {
	return BuildColumn("", rows, blocks)
}

// BuildColumn is Build with an explicit group-column name.
func BuildColumn(column string, rows []Row, blocks int) (*Store, error) {
	keys, vals, err := partition(rows, blocks)
	if err != nil {
		return nil, err
	}
	groups := make(map[string]*block.Store, len(keys))
	for j, k := range keys {
		groups[k] = block.Partition(vals[j], min(blocks, len(vals[j])))
	}
	return NewStore(column, groups)
}

// partition regroups rows by key: the keys sorted, and per key its values
// in row order (blocks is only checked). The first pass numbers the groups
// and notes each row's number, looking a key up only where it differs from
// the row before; the second fills every group into its place in one array
// of len(rows) values — no per-group slice grown row by row and copied on
// the way, and no second lookup.
func partition(rows []Row, blocks int) (keys []string, vals [][]float64, err error) {
	if len(rows) == 0 {
		return nil, nil, errors.New("group: no rows")
	}
	if blocks <= 0 {
		return nil, nil, fmt.Errorf("group: block count %d must be positive", blocks)
	}
	index := map[string]uint32{} // key → position in seen and counts
	var seen []string
	var counts []int
	ids := make([]uint32, len(rows)) // 2³² distinct keys would take 100 GB of rows
	for i := 0; i < len(rows); {
		k := rows[i].Group
		j, ok := index[k]
		if !ok {
			j = uint32(len(seen))
			index[k] = j
			seen = append(seen, k)
			counts = append(counts, 0)
		}
		start := i
		for ; i < len(rows) && rows[i].Group == k; i++ {
			ids[i] = j
		}
		counts[j] += i - start
	}
	keys = append(keys, seen...)
	sort.Strings(keys)
	all := make([]float64, len(rows))
	vals = make([][]float64, len(keys))
	next := make([]int, len(seen)) // where each group's next value goes
	off := 0
	for g, k := range keys {
		j := index[k]
		next[j] = off
		off += counts[j]
		vals[g] = all[next[j]:off:off]
	}
	for i, j := range ids {
		all[next[j]] = rows[i].Value
		next[j]++
	}
	return keys, vals, nil
}

// Column returns the group column's name ("" when unnamed).
func (g *Store) Column() string { return g.column }

// Groups returns the group keys, sorted.
func (g *Store) Groups() []string {
	keys := make([]string, len(g.keys))
	copy(keys, g.keys)
	return keys
}

// Group returns one group's store.
func (g *Store) Group(key string) (*block.Store, error) {
	s, ok := g.groups[key]
	if !ok {
		return nil, fmt.Errorf("group: unknown group %q", key)
	}
	return s, nil
}

// TotalLen returns the total row count across groups.
func (g *Store) TotalLen() int64 { return g.total }

// Combined returns a store over every group's blocks (sorted-key order,
// renumbered IDs) — the table view an ungrouped query aggregates. The
// blocks are shared with the per-group stores; batched sampling and
// persisted summaries delegate to the underlying blocks.
func (g *Store) Combined() *block.Store { return g.combined }

// Scrub verifies every group's blocks in sorted-key order and mirrors the
// quarantine into the combined view, so ungrouped queries on the same
// table see the same damage a grouped query does. Reports come back merged
// with block ids renumbered into the combined view's numbering (groups are
// concatenated in sorted-key order and group-local ids equal block
// positions, as every construction path here guarantees). workers bounds
// the verification concurrency within each group.
func (g *Store) Scrub(ctx context.Context, workers int) (block.ScrubReport, error) {
	var rep block.ScrubReport
	offset := 0
	for _, k := range g.keys {
		s := g.groups[k]
		r, err := s.Scrub(ctx, workers)
		for i := range r.Corrupt {
			combined := offset + r.Corrupt[i].BlockID
			g.combined.Quarantine(combined)
			r.Corrupt[i].BlockID = combined
		}
		rep.Merge(r)
		if err != nil {
			return rep, err
		}
		offset += s.NumBlocks()
	}
	return rep, nil
}

// Close releases resources held by every group's store (file-backed and
// memory-mapped blocks). The combined view shares the same blocks, so each
// is closed exactly once; the first error wins.
func (g *Store) Close() error {
	var first error
	for _, k := range g.keys {
		if err := g.groups[k].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// reidBlock renumbers a block for the combined view while delegating the
// fused-filter, summary and verify capabilities of the underlying block. It
// deliberately does not forward io.Closer: the per-group stores own their
// blocks' lifetimes, so closing the combined view is a no-op.
type reidBlock struct {
	block.Block
	id int
}

// ID implements Block with the combined view's numbering.
func (b reidBlock) ID() int { return b.id }

// Summary implements block.Summarized by delegating to the underlying
// block, so combined stores over ISLB v2 files keep exact summaries.
func (b reidBlock) Summary() (block.Summary, bool) {
	return block.BlockSummary(b.Block)
}

// SampleFilteredInterval delegates the block package's fused filtered-gather
// capability, so the kernel (and the identical fallback for blocks without
// it) survives the combined view's renumbering.
func (b reidBlock) SampleFilteredInterval(r *stats.RNG, m int64, lo, hi float64, fn func(vs []float64) error) (int64, error) {
	return block.SampleFilteredIntervalChunks(b.Block, r, m, lo, hi, fn)
}

// VerifyPayload implements block.Verifier by delegating, so a scrub of the
// combined view checks the same bytes a per-group scrub would.
func (b reidBlock) VerifyPayload() (bool, error) {
	if v, ok := b.Block.(block.Verifier); ok {
		return v.VerifyPayload()
	}
	return false, nil
}

// Path exposes the underlying block's file path for scrub reports.
func (b reidBlock) Path() string { return block.BlockPath(b.Block) }

// manifest is the on-disk description of a grouped table: the group
// column and, per group, the ISLB block files holding its values. File
// paths are relative to the manifest's directory. Keys are stored in the
// manifest only — file names are index-based — so any string, including
// "", is a valid group key.
type manifest struct {
	Version int             `json:"version"`
	Column  string          `json:"column"`
	Groups  []manifestGroup `json:"groups"`
}

// manifestGroup names one group's block files, in block order.
type manifestGroup struct {
	Key   string   `json:"key"`
	Files []string `json:"files"`
}

// manifestVersion is the current manifest format.
const manifestVersion = 1

// manifestName is the file name WriteFiles gives the manifest inside its
// directory.
const manifestName = "manifest.json"

// WriteFiles partitions rows per group into ISLB block files (current
// format) under dir
// (g0000.000, g0000.001, … — group directories indexed in sorted-key
// order) and writes manifest.json describing them. Partition boundaries
// match block.Partition exactly, so a store opened from these files is
// block-for-block identical to Build over the same rows. It returns the
// manifest path.
func WriteFiles(dir, column string, rows []Row, blocksPerGroup int) (string, error) {
	keys, groups, err := partition(rows, blocksPerGroup)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	man := manifest{Version: manifestVersion, Column: column}
	for gi, k := range keys {
		vals := groups[gi]
		b := min(blocksPerGroup, len(vals))
		mg := manifestGroup{Key: k, Files: make([]string, 0, b)}
		n := len(vals)
		for i := 0; i < b; i++ {
			lo := i * n / b
			hi := (i + 1) * n / b
			name := fmt.Sprintf("g%04d.%03d", gi, i)
			if err := block.WriteFile(filepath.Join(dir, name), vals[lo:hi]); err != nil {
				return "", err
			}
			mg.Files = append(mg.Files, name)
		}
		man.Groups = append(man.Groups, mg)
	}
	path := filepath.Join(dir, manifestName)
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return "", err
	}
	// The manifest is the table's root pointer: published atomically and
	// durably like the block files it names, so a crash mid-write can never
	// leave a torn manifest shadowing a complete set of blocks.
	if err := fsio.WriteFileBytes(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// OpenManifest opens every group's block files in the given mode and
// assembles the grouped store. Close the store to release the mappings
// and handles.
func OpenManifest(path string, mode block.OpenMode) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("group: parsing manifest %s: %w", path, err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("group: manifest %s has unsupported version %d", path, man.Version)
	}
	dir := filepath.Dir(path)
	groups := make(map[string]*block.Store, len(man.Groups))
	fail := func(e error) (*Store, error) {
		for _, s := range groups {
			s.Close()
		}
		return nil, e
	}
	for _, mg := range man.Groups {
		if _, dup := groups[mg.Key]; dup {
			return fail(fmt.Errorf("group: manifest %s repeats group %q", path, mg.Key))
		}
		blocks := make([]block.Block, 0, len(mg.Files))
		for i, f := range mg.Files {
			fb, err := block.Open(i, filepath.Join(dir, f), mode)
			if err != nil {
				block.NewStore(blocks...).Close()
				return fail(err)
			}
			blocks = append(blocks, fb)
		}
		groups[mg.Key] = block.NewStore(blocks...)
	}
	g, err := NewStore(man.Column, groups)
	if err != nil {
		return fail(err)
	}
	return g, nil
}
