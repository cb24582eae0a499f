package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/query"
	"isla/internal/stats"
)

// FilteredStat is one (storage layout, selectivity, filtering path) cell
// of the filtered-sampling microbenchmark: the post-gather closure path
// (gather a chunk, reject through the compiled query.Filter closure — the
// general-predicate production path) against the fused interval kernel
// (compare-and-select inside the gather loop). Both paths draw the same
// raw samples from the same seed and accept bit-identical values.
type FilteredStat struct {
	Layout      string  `json:"layout"`      // "mem" | "file" (pread) | "mmap"
	Path        string  `json:"path"`        // "postgather" | "fused"
	Selectivity float64 `json:"selectivity"` // target acceptance fraction
	Samples     int64   `json:"samples"`     // raw draws
	Accepted    int64   `json:"accepted"`
	WallMS      float64 `json:"wall_ms"`
	NsPerSample float64 `json:"ns_per_sample"` // per raw draw
}

// filteredSelectivities is the sweep: from keep-almost-everything to the
// highly selective regime where rejection dominates the filtered path.
var filteredSelectivities = []float64{0.99, 0.5, 0.1, 0.01}

// filteredRange returns the WHERE conjunction keeping the central `sel`
// probability mass of the N(100, 20²) benchmark column: a two-sided range
// predicate, the shape zone maps and the fused kernel target.
func filteredRange(sel float64) []query.Predicate {
	lo := 100 + 20*stats.InvNormalCDF((1-sel)/2)
	hi := 100 + 20*stats.InvNormalCDF((1+sel)/2)
	return []query.Predicate{
		{Column: "v", Op: query.GE, Value: lo},
		{Column: "v", Op: query.LE, Value: hi},
	}
}

// Filtered sweeps the filtered-sampling hot path over storage layouts and
// selectivities. The post-gather leg runs the production closure compiled
// by query.Filter; the fused leg runs the interval kernel on the bounds
// compiled by query.CompileInterval from the same conjunction.
func Filtered(o Options) ([]FilteredStat, error) {
	o = o.Defaults()
	mem := block.NewMemBlock(0, syntheticColumn(o.N, o.Seed))

	dir, err := os.MkdirTemp("", "isla-bench-filtered")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "col.000")
	if err := block.WriteFile(path, mem.Data()); err != nil {
		return nil, err
	}
	file, err := block.Open(0, path, block.ModePread)
	if err != nil {
		return nil, err
	}
	defer file.(io.Closer).Close()

	layouts := []struct {
		name string
		blk  block.Block
	}{{"mem", mem}, {"file", file}}
	if block.MmapSupported() {
		mm, err := block.Open(0, path, block.ModeMmap)
		if err != nil {
			return nil, err
		}
		defer mm.(io.Closer).Close()
		layouts = append(layouts, struct {
			name string
			blk  block.Block
		}{"mmap", mm})
	}

	var out []FilteredStat
	for _, layout := range layouts {
		for _, sel := range filteredSelectivities {
			preds := filteredRange(sel)
			pred := query.Filter(preds)
			iv, ok := query.CompileInterval(preds)
			if !ok {
				return nil, fmt.Errorf("bench: range conjunction did not compile to an interval")
			}
			for _, p := range []struct {
				name string
				time func(block.Block) (time.Duration, int64, error)
			}{
				{"postgather", func(b block.Block) (time.Duration, int64, error) {
					r := stats.NewRNG(o.Seed)
					var sums stats.PowerSums
					start := time.Now()
					acc, err := block.SampleFilteredChunks(b, r, samplingDraws, pred, func(vs []float64) error {
						sums.AddSlice(vs)
						return nil
					})
					return time.Since(start), acc, err
				}},
				{"fused", func(b block.Block) (time.Duration, int64, error) {
					r := stats.NewRNG(o.Seed)
					var sums stats.PowerSums
					start := time.Now()
					acc, err := block.SampleFilteredIntervalChunks(b, r, samplingDraws, iv.Lo, iv.Hi, func(vs []float64) error {
						sums.AddSlice(vs)
						return nil
					})
					return time.Since(start), acc, err
				}},
			} {
				wall, acc, err := p.time(layout.blk)
				if err != nil {
					return nil, fmt.Errorf("bench: filtered %s/%s: %w", layout.name, p.name, err)
				}
				out = append(out, FilteredStat{
					Layout:      layout.name,
					Path:        p.name,
					Selectivity: sel,
					Samples:     samplingDraws,
					Accepted:    acc,
					WallMS:      float64(wall.Microseconds()) / 1000,
					NsPerSample: float64(wall.Nanoseconds()) / samplingDraws,
				})
			}
		}
	}
	return out, nil
}

// PruningStat is one leg of the zone-map pruning comparison: the same
// filtered estimation on range-partitioned ISLB v2 files with pruning on
// and off. Pruning never changes an answer bit — only the physical draws
// and the wall time drop.
type PruningStat struct {
	Mode            string  `json:"mode"` // "pruned" | "unpruned"
	WallMS          float64 `json:"wall_ms"`
	Planned         int64   `json:"planned"` // raw draws the plan allocated
	Drawn           int64   `json:"drawn"`   // physically serviced
	Accepted        int64   `json:"accepted"`
	PrunedBlocks    int     `json:"pruned_blocks"`
	ContainedBlocks int     `json:"contained_blocks"`
	Estimate        float64 `json:"estimate"`
}

// Pruning builds a range-partitioned store (the sorted benchmark column
// split into v2 block files, so every block covers a narrow value range),
// runs the filtered estimator on a central interval with zone-map pruning
// on and off, and reports the work each leg did. The two estimates must
// agree bit-for-bit; the stat records both so the trajectory file would
// expose any drift.
func Pruning(o Options) ([]PruningStat, error) {
	o = o.Defaults()
	data := syntheticColumn(o.N, o.Seed)
	sort.Float64s(data)

	dir, err := os.MkdirTemp("", "isla-bench-pruning")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	mode := block.ModePread
	if block.MmapSupported() {
		mode = block.ModeMmap
	}
	blocks := make([]block.Block, o.Blocks)
	for i := range blocks {
		part := data[i*len(data)/o.Blocks : (i+1)*len(data)/o.Blocks]
		path := filepath.Join(dir, fmt.Sprintf("col.%03d", i))
		if err := block.WriteFile(path, part); err != nil {
			return nil, err
		}
		b, err := block.Open(i, path, mode)
		if err != nil {
			return nil, err
		}
		defer b.(io.Closer).Close()
		blocks[i] = b
	}
	s := block.NewStore(blocks...)

	iv, ok := query.CompileInterval(filteredRange(0.1))
	if !ok {
		return nil, fmt.Errorf("bench: range conjunction did not compile to an interval")
	}
	f := core.IntervalFilter(iv.Lo, iv.Hi)
	cfg := core.DefaultConfig()
	cfg.Seed = o.Seed + 7000
	cfg.Precision = 0.05

	var out []PruningStat
	for _, leg := range []struct {
		mode    string
		disable bool
	}{{"pruned", false}, {"unpruned", true}} {
		cfg.DisablePruning = leg.disable
		start := time.Now()
		fr, err := core.EstimateFiltered(context.Background(), s, cfg, f)
		if err != nil {
			return nil, fmt.Errorf("bench: pruning %s: %w", leg.mode, err)
		}
		out = append(out, PruningStat{
			Mode:            leg.mode,
			WallMS:          float64(time.Since(start).Microseconds()) / 1000,
			Planned:         fr.Planned,
			Drawn:           fr.Drawn,
			Accepted:        fr.Accepted,
			PrunedBlocks:    fr.PrunedBlocks,
			ContainedBlocks: fr.ContainedBlocks,
			Estimate:        fr.Avg,
		})
	}
	return out, nil
}
