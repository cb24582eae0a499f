// Package tableflags is the table-loading command line islacli and islaserv
// share: the seven table-source flags, -open, -summary-pilot, -allow-partial
// and -workers, and the one loader that turns them into a configured engine.
// A flag therefore means the same in both binaries (islaworker takes -open
// and its block-file loading from here as well).
package tableflags

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"isla/internal/block"
	"isla/internal/cluster"
	"isla/internal/engine"
	"isla/internal/group"
	"isla/internal/ingest"
	"isla/internal/workload"
	"isla/internal/workload/groupspec"
)

// Flags holds the parsed table flags. The exported fields are what the
// binaries read back after flag parsing.
type Flags struct {
	gens, loads, texts, csvs, groupGens, groupLoads, shards multi
	open                                                    string

	// Workers, SummaryPilot and AllowPartial are -workers, -summary-pilot
	// and -allow-partial; Engine applies them.
	Workers      int
	SummaryPilot bool
	AllowPartial bool
	// TextBlocks is the block count of -txt/-csv tables (0 means 10); a
	// binary with a flag of its own for it sets the field before Engine.
	TextBlocks int
}

// multi collects a repeatable string flag.
type multi []string

func (m *multi) String() string     { return strings.Join(*m, ";") }
func (m *multi) Set(v string) error { *m = append(*m, v); return nil }

// Register declares the shared flags on fs; workers is the binary's default
// for -workers.
func Register(fs *flag.FlagSet, workers int) *Flags {
	f := new(Flags)
	fs.Var(&f.gens, "gen", "synthetic table spec name=dist:key=val,... (repeatable)")
	fs.Var(&f.texts, "txt", "load one-value-per-line text name=path (repeatable)")
	fs.Var(&f.csvs, "csv", "load CSV column name=path:column (repeatable)")
	fs.Var(&f.loads, "load", "load binary block files name=prefix (expects prefix.000…; repeatable)")
	fs.Var(&f.groupGens, "gengroup", "synthetic grouped table spec name=column;key:dist:params;... (repeatable)")
	fs.Var(&f.groupLoads, "loadgroup", "load a grouped table from its manifest name=manifest.json (repeatable)")
	fs.Var(&f.shards, "shards", "serve a sharded table from its shard manifest name=shards.json; blocks stay on the islaworkers (repeatable)")
	f.RegisterOpen(fs)
	fs.BoolVar(&f.SummaryPilot, "summary-pilot", false, "serve pre-estimation from persisted ISLB v2 summaries when every block has one: exact σ/sketch0, zero pilot samples")
	fs.BoolVar(&f.AllowPartial, "allow-partial", false, "answer over the intact data, reporting coverage, instead of failing: when shard blocks have no live replica, or when a scrub quarantined corrupt blocks")
	fs.IntVar(&f.Workers, "workers", workers, "exec-runtime concurrency per query: 0 sequential, -1 one worker per CPU, n as-is. Answers are identical for any setting")
	return f
}

// RegisterOpen declares -open alone — all a binary that only opens block
// files needs.
func (f *Flags) RegisterOpen(fs *flag.FlagSet) {
	fs.StringVar(&f.open, "open", "auto", "block-file access for -load: mmap (zero-copy mapping), pread (positioned reads) or auto (mmap where supported)")
}

// OpenPrefix opens prefix.000, prefix.001, … in -open's mode as blocks
// firstID, firstID+1, …
func (f *Flags) OpenPrefix(prefix string, firstID int) ([]block.Block, error) {
	mode, err := block.ParseOpenMode(f.open)
	if err != nil {
		return nil, err
	}
	matches, err := filepath.Glob(prefix + ".*")
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no block files match %s.*", prefix)
	}
	sort.Strings(matches)
	blocks := make([]block.Block, 0, len(matches))
	for i, p := range matches {
		b, err := block.Open(firstID+i, p, mode)
		if err != nil {
			block.NewStore(blocks...).Close() // release the handles already opened
			return nil, err
		}
		blocks = append(blocks, b)
	}
	return blocks, nil
}

// Engine loads every table the flags name into a fresh catalog and returns
// the engine over it, configured by -workers, -summary-pilot and
// -allow-partial. fault tunes the transport of -shards tables; its
// AllowPartial is the flag's, so the flag reaches the shard transport as well
// as the local degradation policy. release closes the block mappings, file
// handles and worker connections opened so far; it is non-nil even on error.
func (f *Flags) Engine(fault cluster.Config) (eng *engine.Engine, release func(), err error) {
	var closers []io.Closer
	release = func() {
		for _, c := range closers {
			c.Close()
		}
	}
	mode, err := block.ParseOpenMode(f.open)
	if err != nil {
		return nil, release, err
	}
	catalog := engine.NewCatalog()
	eng = engine.New(catalog)
	eng.SetWorkers(f.Workers)
	eng.SetAllowPartial(f.AllowPartial)
	cfg := eng.BaseConfig()
	cfg.SummaryPilot = f.SummaryPilot
	eng.SetBaseConfig(cfg)
	fault.AllowPartial = f.AllowPartial
	opts := ingest.Options{Blocks: f.TextBlocks, SkipInvalid: true}
	if opts.Blocks == 0 {
		opts.Blocks = 10
	}
	plain := func(name string, s *block.Store, err error) error {
		if err == nil {
			catalog.Register(name, s)
		}
		return err
	}
	grouped := func(name string, g *group.Store, err error) error {
		if err == nil {
			catalog.RegisterGrouped(name, g)
		}
		return err
	}

	// Every source is a repeatable name=value flag; want is the value's shape
	// for the error message.
	sources := []struct {
		flag, want string
		specs      []string
		load       func(name, value string) error
	}{
		{"gen", "dist:key=val,...", f.gens, func(name, value string) error {
			_, s, err := workload.FromSpec(name + "=" + value)
			return plain(name, s, err)
		}},
		{"gengroup", "column;key:dist:params;...", f.groupGens, func(name, value string) error {
			_, g, err := groupspec.FromSpec(name + "=" + value)
			return grouped(name, g, err)
		}},
		{"txt", "path", f.texts, func(name, path string) error {
			s, _, err := ingest.LoadText(path, opts)
			return plain(name, s, err)
		}},
		{"csv", "path:column", f.csvs, func(name, value string) error {
			path, column, ok := strings.Cut(value, ":")
			if !ok {
				return fmt.Errorf("bad -csv value %q (want path:column)", value)
			}
			s, _, err := ingest.LoadCSV(path, column, 0, opts)
			return plain(name, s, err)
		}},
		{"load", "prefix", f.loads, func(name, prefix string) error {
			blocks, err := f.OpenPrefix(prefix, 0)
			if err != nil {
				return err
			}
			s := block.NewStore(blocks...)
			closers = append(closers, s)
			return plain(name, s, nil)
		}},
		{"loadgroup", "manifest.json", f.groupLoads, func(name, path string) error {
			g, err := group.OpenManifest(path, mode)
			if err == nil {
				closers = append(closers, g)
			}
			return grouped(name, g, err)
		}},
		{"shards", "shards.json", f.shards, func(name, path string) error {
			man, err := cluster.LoadShardManifest(path)
			if err != nil {
				return err
			}
			st, err := cluster.NewShardTable(man, eng.BaseConfig(), fault, nil)
			if err != nil {
				return err
			}
			closers = append(closers, st)
			catalog.RegisterSharded(name, st)
			return nil
		}},
	}
	for _, src := range sources {
		for _, spec := range src.specs {
			name, value, ok := strings.Cut(spec, "=")
			if !ok {
				return nil, release, fmt.Errorf("bad -%s %q (want name=%s)", src.flag, spec, src.want)
			}
			if err := src.load(name, value); err != nil {
				return nil, release, err
			}
		}
	}
	return eng, release, nil
}
