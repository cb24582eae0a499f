// Package group holds grouped tables, the storage side of the GROUP BY
// extension the paper names in §VII-D. Rows are (group key, value) pairs;
// a grouped table is one block store over every group's blocks, group after
// group in sorted-key order, plus an index from each group key to its range
// of blocks. Block IDs are table-wide (equal to the block's position in the
// table's store), so a block has one name whether a query reaches it
// through the table or through its group, and the table has one quarantine
// set. Ungrouped statements aggregate the whole store; a SQL GROUP BY runs
// through the engine, which applies the one ISLA pipeline to each group's
// view in turn. The package builds, persists and opens such tables; it
// executes nothing.
//
// Grouped tables live either in memory (BuildColumn over rows) or on disk as
// per-group partitioned ISLB files described by a manifest (WriteFiles /
// OpenManifest), so mmap- and pread-backed blocks with persisted summary
// footers serve grouped queries — including SummaryPilot pre-estimation —
// exactly like ungrouped ones.
package group

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"isla/internal/block"
	"isla/internal/fsio"
)

// Row is one (group, value) observation.
type Row struct {
	Group string
	Value float64
}

// Store is a grouped column: one block store owning every group's blocks,
// and per group key a view over that group's range of them.
type Store struct {
	column   string
	keys     []string // sorted
	groups   map[string]*block.Store
	combined *block.Store
}

// NewStore assembles a grouped store from per-group block stores, taking
// ownership of their blocks. Block IDs must already be table-wide: the
// groups' blocks, concatenated in sorted-key order, must carry IDs 0, 1, 2,
// … — a store numbered any other way is refused. column names the group
// column a SQL GROUP BY must reference ("" accepts any). The empty string is
// a valid group key.
func NewStore(column string, groups map[string]*block.Store) (*Store, error) {
	if len(groups) == 0 {
		return nil, errors.New("group: no groups")
	}
	keys := slices.Sorted(maps.Keys(groups))
	var blocks []block.Block
	sizes := make([]int, len(keys))
	for j, k := range keys {
		for _, b := range groups[k].Blocks() {
			if b.ID() != len(blocks) {
				return nil, fmt.Errorf("group: group %q has block id %d at table-wide position %d", k, b.ID(), len(blocks))
			}
			blocks = append(blocks, b)
		}
		sizes[j] = groups[k].NumBlocks()
	}
	return assemble(column, keys, sizes, blocks), nil
}

// assemble builds the table store over blocks and cuts each group's view:
// group keys[j] owns the next sizes[j] blocks.
func assemble(column string, keys []string, sizes []int, blocks []block.Block) *Store {
	g := &Store{column: column, keys: keys, groups: make(map[string]*block.Store, len(keys)),
		combined: block.NewStore(blocks...)}
	lo := 0
	for j, k := range keys {
		g.groups[k] = g.combined.View(lo, lo+sizes[j])
		lo += sizes[j]
	}
	return g
}

// BuildColumn partitions rows into an in-memory grouped store with the
// given block count per group (clamped to the group size, so a 2-row group
// gets 2 blocks, never empty ones). column names the group column.
func BuildColumn(column string, rows []Row, blocks int) (*Store, error) {
	keys, vals, err := partition(rows, blocks)
	if err != nil {
		return nil, err
	}
	var all []block.Block
	sizes := make([]int, len(keys))
	for j := range keys {
		part := split(vals[j], blocks)
		for _, data := range part {
			all = append(all, block.NewMemBlock(len(all), data))
		}
		sizes[j] = len(part)
	}
	return assemble(column, keys, sizes, all), nil
}

// split cuts one group's values into min(blocks, len(vals)) contiguous,
// near-equal pieces at block.Partition's boundaries.
func split(vals []float64, blocks int) [][]float64 {
	n := len(vals)
	b := min(blocks, n)
	out := make([][]float64, b)
	for i := range out {
		out[i] = vals[i*n/b : (i+1)*n/b]
	}
	return out
}

// partition regroups rows by key: the keys sorted, and per key its values
// in row order (blocks is only checked). One pass copies the values in row
// order into an array of len(rows), looking a key up only where it differs
// from the row before. While every key's rows are contiguous that copy is
// the answer, each group's values one slice of it. Once a key comes back
// after another, the pass notes each row's group number instead (the rows
// before it from their runs), and a second pass scatters every group into
// its place in the same array. Either way partitioning allocates at most
// the array and, for the scatter, 4 bytes of group number per row.
func partition(rows []Row, blocks int) (keys []string, vals [][]float64, err error) {
	if len(rows) == 0 {
		return nil, nil, errors.New("group: no rows")
	}
	if blocks <= 0 {
		return nil, nil, fmt.Errorf("group: block count %d must be positive", blocks)
	}
	type span struct{ start, n int } // a key's first row and its row count
	index := map[string]uint32{}     // key → position in spans
	var spans []span
	all := make([]float64, len(rows))
	i := 0
	for i < len(rows) { // every run so far is a new key's only one
		k := rows[i].Group
		if _, ok := index[k]; ok {
			break
		}
		index[k] = uint32(len(spans))
		start := i
		for ; i < len(rows) && rows[i].Group == k; i++ {
			all[i] = rows[i].Value
		}
		spans = append(spans, span{start, i - start})
	}
	var ids []uint32 // per row its key's position, once a key has come back
	if i < len(rows) {
		ids = make([]uint32, len(rows)) // 2³² distinct keys would take 100 GB of rows
		for g, sp := range spans {
			for r := sp.start; r < sp.start+sp.n; r++ {
				ids[r] = uint32(g)
			}
		}
	}
	for i < len(rows) {
		k := rows[i].Group
		j, ok := index[k]
		if !ok {
			j = uint32(len(spans))
			index[k] = j
			spans = append(spans, span{})
		}
		start := i
		for ; i < len(rows) && rows[i].Group == k; i++ {
			ids[i] = j
		}
		spans[j].n += i - start
	}
	keys = make([]string, 0, len(index))
	for k := range index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals = make([][]float64, len(keys))
	if ids == nil {
		for g, k := range keys {
			sp := spans[index[k]]
			vals[g] = all[sp.start : sp.start+sp.n : sp.start+sp.n]
		}
		return keys, vals, nil
	}
	off := 0 // the scatter lays the groups out in key order
	for g, k := range keys {
		sp := &spans[index[k]]
		sp.start = off // from here on: where the group's next value goes
		off += sp.n
		vals[g] = all[sp.start:off:off]
	}
	for i, j := range ids {
		all[spans[j].start] = rows[i].Value
		spans[j].start++
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

// Group returns one group's view: the table's blocks of that group, with
// their table-wide IDs and the table's quarantine set. Closing it closes
// nothing.
func (g *Store) Group(key string) (*block.Store, error) {
	s, ok := g.groups[key]
	if !ok {
		return nil, fmt.Errorf("group: unknown group %q", key)
	}
	return s, nil
}

// Combined returns the table's store: every group's blocks in sorted-key
// order, block i carrying ID i — the store an ungrouped query aggregates
// and a scrub walks. It owns the blocks: closing it releases them.
func (g *Store) Combined() *block.Store { return g.combined }

// Close releases the table's file-backed and memory-mapped blocks: it is
// Combined().Close().
func (g *Store) Close() error { return g.combined.Close() }

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
// format) under dir (g0000.000, g0000.001, … — group directories indexed in
// sorted-key order) and writes manifest.json describing them. Partition
// boundaries match BuildColumn's exactly, so a store opened from these files
// is block for block, ID for ID, identical to BuildColumn over the same
// rows. It returns the manifest path.
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
		mg := manifestGroup{Key: k}
		for i, data := range split(groups[gi], blocksPerGroup) {
			name := fmt.Sprintf("g%04d.%03d", gi, i)
			if err := block.WriteFile(filepath.Join(dir, name), data); err != nil {
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
// assembles the grouped store, numbering the blocks table-wide in
// sorted-key order whatever order the manifest lists its groups in. Close
// the store to release the mappings and handles.
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
	if len(man.Groups) == 0 {
		return nil, fmt.Errorf("group: manifest %s names no groups", path)
	}
	sort.SliceStable(man.Groups, func(i, j int) bool { return man.Groups[i].Key < man.Groups[j].Key })
	keys := make([]string, len(man.Groups))
	sizes := make([]int, len(man.Groups))
	for j, mg := range man.Groups {
		if j > 0 && mg.Key == keys[j-1] {
			return nil, fmt.Errorf("group: manifest %s repeats group %q", path, mg.Key)
		}
		keys[j], sizes[j] = mg.Key, len(mg.Files)
	}
	dir := filepath.Dir(path)
	var blocks []block.Block
	for _, mg := range man.Groups {
		for _, f := range mg.Files {
			b, err := block.Open(len(blocks), filepath.Join(dir, f), mode)
			if err != nil {
				block.NewStore(blocks...).Close() // release the handles already opened
				return nil, err
			}
			blocks = append(blocks, b)
		}
	}
	return assemble(man.Column, keys, sizes, blocks), nil
}
