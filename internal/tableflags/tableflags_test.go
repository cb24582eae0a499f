package tableflags

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isla/internal/block"
	"isla/internal/cluster"
	"isla/internal/core"
	"isla/internal/engine"
	"isla/internal/workload"
)

// load parses args the way a binary would and builds the engine.
func load(t *testing.T, args ...string) (*engine.Engine, *Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, 0)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	eng, release, err := f.Engine()
	t.Cleanup(release)
	return eng, f, err
}

// TestShardsAllowPartial pins that -allow-partial governs the sharded tables
// the loader builds as well as local ones: the flag is the engine's one
// policy (SetAllowPartial), and a sharded query degrades under its own
// cfg.AllowPartial. With it, a query over a table that lost a block's only
// owner degrades to a partial answer naming the loss; without it, the same
// query fails with the typed error.
func TestShardsAllowPartial(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 80_000, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	man := &cluster.ShardManifest{Version: 1}
	var doomed *cluster.Worker
	for w := 0; w < 2; w++ {
		own := s.Blocks()[2*w : 2*w+2]
		worker := cluster.NewWorker(own...)
		l, err := worker.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { worker.Close() })
		e := cluster.ShardEntry{Addr: l.Addr().String()}
		for _, b := range own {
			e.Blocks = append(e.Blocks, b.ID())
			e.Lens = append(e.Lens, b.Len())
		}
		man.Shards = append(man.Shards, e)
		doomed = worker
	}
	path := filepath.Join(t.TempDir(), "shards.json")
	if err := man.Write(path); err != nil {
		t.Fatal(err)
	}
	fault := []string{"-call-timeout", "2s", "-rpc-retries", "1", "-rpc-backoff", "1ms"}

	tolerant, _, err := load(t, append(fault, "-shards", "t="+path, "-allow-partial")...)
	if err != nil {
		t.Fatal(err)
	}
	strict, _, err := load(t, append(fault, "-shards", "t="+path)...)
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT AVG(v) FROM t WITH PRECISION 0.5 SEED 5"
	// Both pilots run while every block is alive; then one owner dies.
	tolerant.EnablePlanCache(8)
	strict.EnablePlanCache(8)
	healthy, err := tolerant.ExecuteSQL(sql)
	if err != nil || healthy.Partial != nil {
		t.Fatalf("healthy run: %+v, %v", healthy.Partial, err)
	}
	if _, err := strict.ExecuteSQL(sql); err != nil {
		t.Fatal(err)
	}
	doomed.Close()

	res, err := tolerant.ExecuteSQL(sql)
	if err != nil {
		t.Fatalf("-allow-partial did not reach the sharded query: %v", err)
	}
	if res.Partial == nil || len(res.Partial.MissingBlocks) != 2 || res.Partial.CoveredRows != 40_000 {
		t.Fatalf("degraded answer carries Partial = %+v, want blocks 2 and 3 missing, 40000 rows covered", res.Partial)
	}
	var lost *core.BlocksLostError
	if _, err := strict.ExecuteSQL(sql); !errors.As(err, &lost) {
		t.Fatalf("without the flag: err = %v, want *core.BlocksLostError", err)
	}
}

// TestEngineLoadsEverySource: one engine over a generated, a grouped, a text,
// a CSV, a block-file and a -cluster table, configured by the shared flags —
// -blocks among them, so every binary partitions a -txt table the same way.
func TestEngineLoadsEverySource(t *testing.T) {
	dir := t.TempDir()
	values := make([]string, 200)
	data := make([]float64, 200)
	for i := range values {
		values[i], data[i] = "7", 7
	}
	txt := filepath.Join(dir, "v.txt")
	if err := os.WriteFile(txt, []byte(strings.Join(values, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "v.csv")
	if err := os.WriteFile(csv, []byte("id,price\n1,7\n2,7\n3,7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(dir, "col")
	written, err := block.WritePartitioned(prefix, data, 3)
	if err != nil {
		t.Fatal(err)
	}
	written.Close()
	worker := cluster.NewWorker(block.NewMemBlock(0, data[:120]), block.NewMemBlock(1, data[120:]))
	l, err := worker.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { worker.Close() })
	addr := l.Addr().String()

	eng, f, err := load(t,
		"-gen", "g=normal:n=5000,blocks=2",
		"-gengroup", "gg=region;east:normal:n=3000,blocks=1;west:normal:mu=50,n=3000,blocks=1",
		"-txt", "t="+txt, "-csv", "c="+csv+":price", "-load", "l="+prefix,
		"-cluster", "w= "+addr,
		"-blocks", "4", "-open", "pread", "-workers", "3", "-summary-pilot")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(eng.Catalog.Names(), ","); got != "c,g,gg,l,t,w" {
		t.Fatalf("tables = %s", got)
	}
	if cfg := eng.BaseConfig(); cfg.Workers != 3 || !cfg.SummaryPilot || cfg.AllowPartial || f.Workers != 3 {
		t.Fatalf("base config = %+v", cfg)
	}
	tbl, _ := eng.Catalog.Lookup("l")
	if _, pread := tbl.Store.Block(0).(*block.FileBlock); !pread || tbl.Store.NumBlocks() != 3 {
		t.Fatalf("-load with -open pread opened %T × %d", tbl.Store.Block(0), tbl.Store.NumBlocks())
	}
	if tbl, _ := eng.Catalog.Lookup("t"); tbl.Store.NumBlocks() != 4 {
		t.Fatalf("-blocks 4 -txt loaded %d blocks", tbl.Store.NumBlocks())
	}
	for _, name := range []string{"t", "c", "l"} {
		res, err := eng.ExecuteSQL("SELECT AVG(v) FROM " + name + " METHOD EXACT")
		if err != nil || res.Value != 7 {
			t.Fatalf("%s: AVG = %v, %v; want 7", name, res.Value, err)
		}
	}
	if res, err := eng.ExecuteSQL("SELECT COUNT(*) FROM gg GROUP BY region"); err != nil || len(res.Groups) != 2 {
		t.Fatalf("grouped table: %+v, %v", res.Groups, err)
	}
	if res, err := eng.ExecuteSQL("SELECT AVG(v) FROM w WITH PRECISION 0.5 SEED 1"); err != nil || res.Value != 7 || res.Rows != 200 {
		t.Fatalf("-cluster table: AVG = %v over %d rows, %v; want 7 over 200", res.Value, res.Rows, err)
	}

	for _, bad := range [][]string{
		{"-load", "nameonly"},
		{"-csv", "c=" + csv},
		{"-load", "l=" + filepath.Join(dir, "missing")},
		{"-gen", "g=nosuchdist"},
		{"-shards", "s=" + filepath.Join(dir, "missing.json")},
		{"-cluster", addr + "," + addr},
		{"-cluster", "w=" + addr + "," + addr},
		{"-gen", "g=normal:n=100", "-open", "sideways"},
	} {
		if _, _, err := load(t, bad...); err == nil {
			t.Errorf("%v: accepted", bad)
		}
	}
}

// TestOpenPrefixNumbersByDecimalSuffix: -load numbers block files by the
// decimal value of their suffix, so past prefix.999 block i still holds file
// i's data (prefix.1000 after prefix.999, not after prefix.100); a suffix
// that is not a decimal number, or a number two files share, is an error
// naming the file.
func TestOpenPrefixNumbersByDecimalSuffix(t *testing.T) {
	const n = 1001
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i)
	}
	prefix := filepath.Join(t.TempDir(), "col")
	written, err := block.WritePartitionedMode(prefix, data, n, block.ModePread)
	if err != nil {
		t.Fatal(err)
	}
	written.Close()

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, 0)
	if err := fs.Parse([]string{"-open", "pread"}); err != nil {
		t.Fatal(err)
	}
	blocks, err := f.OpenPrefix(prefix, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := block.NewStore(blocks...)
	defer s.Close()
	if s.NumBlocks() != n {
		t.Fatalf("opened %d blocks, want %d", s.NumBlocks(), n)
	}
	for i, b := range blocks {
		var got []float64
		if err := b.Scan(func(v float64) error { got = append(got, v); return nil }); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != float64(i) {
			t.Fatalf("block %d holds %v, want file %s.%03d's [%d]", i, got, prefix, i, i)
		}
	}

	stray := prefix + ".tmp"
	if err := os.WriteFile(stray, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.OpenPrefix(prefix, 0); err == nil || !strings.Contains(err.Error(), stray) {
		t.Fatalf("a non-decimal suffix: err = %v, want one naming %s", err, stray)
	}
	// Two spellings of one number leave the order undefined.
	if err := os.Rename(stray, prefix+".01"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.OpenPrefix(prefix, 0); err == nil || !strings.Contains(err.Error(), prefix+".01") {
		t.Fatalf("two files numbering block 1: err = %v", err)
	}
}
