// Command islacli is an interactive shell for ISLA approximate aggregation.
//
// Tables come from binary block files (-load name=prefix, expecting files
// prefix.000, prefix.001, …) or from built-in synthetic generators
// (-gen "name=normal:mu=100,sigma=20,n=1000000,blocks=10"). Grouped
// tables come from -gengroup "name=column;key:dist:params;..." or
// -loadgroup name=manifest.json, and answer GROUP BY / WHERE statements
// per group. Queries are read from -q or line by line from stdin:
//
//	islacli -gen "sales=normal:mu=100,sigma=20,n=1000000,blocks=10" \
//	        -q "SELECT AVG(v) FROM sales WITH PRECISION 0.1"
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"isla"
	"isla/internal/workload"
	"isla/internal/workload/groupspec"
)

func main() {
	var gens, loads, texts, csvs, groupGens, groupLoads, shardLoads multiFlag
	flag.Var(&gens, "gen", "synthetic table spec name=dist:key=val,... (repeatable)")
	flag.Var(&loads, "load", "load block files name=prefix (repeatable)")
	flag.Var(&texts, "txt", "load one-value-per-line text name=path (repeatable)")
	flag.Var(&csvs, "csv", "load CSV column name=path:column (repeatable)")
	flag.Var(&groupGens, "gengroup", "synthetic grouped table spec name=column;key:dist:params;... (repeatable)")
	flag.Var(&groupLoads, "loadgroup", "load a grouped table from its manifest name=manifest.json (repeatable)")
	flag.Var(&shardLoads, "shards", "serve a sharded table from its shard manifest name=shards.json; blocks stay on the islaworkers (repeatable)")
	clusterAddrs := flag.String("cluster", "", "comma-separated islaworker addresses; runs -q on the sharded table they serve between them (its manifest is read from the workers; the same block id on two addresses is a replica)")
	callTimeout := flag.Duration("call-timeout", 0, "per-RPC deadline for -cluster/-shards calls (0 = default, negative disables)")
	rpcRetries := flag.Int("rpc-retries", 0, "retries per -cluster/-shards call on transient failure before failing over (0 = default, negative disables)")
	rpcBackoff := flag.Duration("rpc-backoff", 0, "base retry backoff for -cluster/-shards calls, doubled per attempt with jitter (0 = default, negative disables)")
	allowPartial := flag.Bool("allow-partial", false, "answer over the intact data instead of failing: with -cluster/-shards when some blocks have no live replica, locally when -scrub quarantined corrupt blocks")
	q := flag.String("q", "", "execute one query and exit")
	workers := flag.Int("workers", 0, "exec-runtime concurrency: 0 sequential, -1 one worker per CPU, n as-is. Answers are identical for any setting")
	openMode := flag.String("open", "auto", "block-file access for -load: mmap (zero-copy mapping), pread (positioned reads) or auto (mmap where supported)")
	summaryPilot := flag.Bool("summary-pilot", false, "serve pre-estimation from persisted ISLB v2 summaries when every block has one: exact σ/sketch0, zero pilot samples")
	verify := flag.Bool("verify", false, "verify every table's payload checksums against the on-disk bytes, print a report and exit; non-zero status when corruption is found")
	scrub := flag.Bool("scrub", false, "verify payload checksums at startup and quarantine whatever fails before answering queries (combine with -allow-partial to degrade instead of refuse)")
	flag.Parse()

	mode, err := isla.ParseOpenMode(*openMode)
	if err != nil {
		fatal(err)
	}

	fault := isla.ClusterConfig{
		CallTimeout:  *callTimeout,
		MaxRetries:   *rpcRetries,
		BaseBackoff:  *rpcBackoff,
		AllowPartial: *allowPartial,
	}
	if *clusterAddrs != "" {
		if err := runCluster(os.Stdout, *clusterAddrs, *q, fault); err != nil {
			fatal(err)
		}
		return
	}

	db := isla.NewDB()
	db.SetWorkers(*workers)
	if *summaryPilot {
		cfg := db.BaseConfig()
		cfg.SummaryPilot = true
		db.SetBaseConfig(cfg)
	}
	for _, g := range gens {
		if err := registerGen(db, g); err != nil {
			fatal(err)
		}
	}
	for _, l := range loads {
		store, err := registerLoad(db, l, mode)
		if err != nil {
			fatal(err)
		}
		defer store.Close() // release the block mappings/handles on exit
	}
	for _, gg := range groupGens {
		name, g, err := groupspec.FromSpec(gg)
		if err != nil {
			fatal(err)
		}
		db.RegisterGrouped(name, g)
	}
	for _, gl := range groupLoads {
		g, err := registerGroupLoad(db, gl, mode)
		if err != nil {
			fatal(err)
		}
		defer g.Close() // release the block mappings/handles on exit
	}
	for _, sl := range shardLoads {
		st, err := registerShards(db, sl, fault)
		if err != nil {
			fatal(err)
		}
		defer st.Close() // release the worker connections on exit
	}
	for _, tl := range texts {
		if err := registerText(db, tl); err != nil {
			fatal(err)
		}
	}
	for _, cl := range csvs {
		if err := registerCSV(db, cl); err != nil {
			fatal(err)
		}
	}
	if len(db.Tables()) == 0 {
		fmt.Fprintln(os.Stderr, "islacli: no tables; use -gen or -load")
		os.Exit(2)
	}
	db.SetAllowPartial(*allowPartial)
	if *verify || *scrub {
		corrupt, err := runScrub(db, *workers)
		if err != nil {
			fatal(err)
		}
		if *verify {
			if corrupt > 0 {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Printf("tables: %s\n", strings.Join(db.Tables(), ", "))

	if *q != "" {
		if err := run(os.Stdout, db, *q); err != nil {
			fatal(err)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("isla> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "--"):
		case line == "\\q" || line == "exit" || line == "quit":
			return
		case line == "\\d":
			fmt.Println(strings.Join(db.Tables(), "\n"))
		default:
			if err := run(os.Stdout, db, line); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
		}
		fmt.Print("isla> ")
	}
}

// runScrub verifies every table's payload checksums, quarantines the
// failures, prints one summary line per table and returns how many corrupt
// blocks were found across all tables.
func runScrub(db *isla.DB, workers int) (int, error) {
	reports, err := db.Scrub(context.Background(), workers)
	if err != nil {
		return 0, err
	}
	corrupt := 0
	for _, tr := range reports {
		fmt.Printf("scrub %s: %s\n", tr.Table, tr.Report.String())
		corrupt += len(tr.Report.Corrupt)
	}
	return corrupt, nil
}

func run(out io.Writer, db *isla.DB, sql string) error {
	res, err := db.Query(sql)
	if err != nil {
		return err
	}
	if len(res.Groups) > 0 {
		fmt.Fprintf(out, "%s GROUP BY %s  [method=%s rows=%d samples=%d time=%s]\n",
			res.Query.Agg, res.Query.GroupBy, res.Method, res.Rows, res.Samples,
			res.Duration.Round(10_000))
		for _, gr := range res.Groups {
			if gr.Err != "" {
				fmt.Fprintf(out, "  %-16q ERROR %s\n", gr.Group, gr.Err)
				continue
			}
			fmt.Fprintf(out, "  %-16q = %.6f", gr.Group, gr.Value)
			if gr.CI != nil {
				fmt.Fprintf(out, "  (±%.4g at %.0f%% confidence)", gr.CI.HalfWidth, gr.CI.Confidence*100)
			}
			if gr.Exact {
				fmt.Fprintf(out, "  (exact)")
			}
			if gr.Filter != nil {
				fmt.Fprintf(out, "  sel=%.3f", gr.Filter.Selectivity)
			}
			if p := gr.Partial; p != nil {
				fmt.Fprintf(out, "  PARTIAL(%d/%d rows)", p.CoveredRows, p.TotalRows)
			}
			fmt.Fprintf(out, "  [rows=%d samples=%d]\n", gr.Rows, gr.Samples)
		}
		return nil
	}
	fmt.Fprintf(out, "%s = %.6f", res.Query.Agg, res.Value)
	if res.CI != nil {
		fmt.Fprintf(out, "  (±%.4g at %.0f%% confidence)", res.CI.HalfWidth, res.CI.Confidence*100)
	}
	if res.Truncated {
		fmt.Fprintf(out, "  TRUNCATED (budget cutoff: partial table coverage)")
	}
	if res.Filter != nil {
		fmt.Fprintf(out, "  sel=%.3f", res.Filter.Selectivity)
	}
	fmt.Fprintf(out, "  [method=%s rows=%d samples=%d time=%s]\n",
		res.Method, res.Rows, res.Samples, res.Duration.Round(10_000))
	if p := res.Partial; p != nil {
		fmt.Fprintf(out, "PARTIAL: blocks %v quarantined; answer covers %d of %d rows\n",
			p.MissingBlocks, p.CoveredRows, p.TotalRows)
	}
	return nil
}

// registerGroupLoad opens a grouped table's manifest in the given open
// mode and returns the store so the caller can Close it when done.
func registerGroupLoad(db *isla.DB, spec string, mode isla.OpenMode) (*isla.GroupStore, error) {
	name, path, ok := strings.Cut(spec, "=")
	if !ok {
		return nil, fmt.Errorf("islacli: bad -loadgroup %q (want name=manifest.json)", spec)
	}
	g, err := isla.OpenGroupManifest(path, mode)
	if err != nil {
		return nil, err
	}
	db.RegisterGrouped(name, g)
	return g, nil
}

// registerShards opens a sharded table from its shard manifest — dialing
// and validating every worker it names — and registers it so the full
// query surface (WHERE, GROUP BY, plan cache) scatters to the shards.
func registerShards(db *isla.DB, spec string, fault isla.ClusterConfig) (*isla.ShardTable, error) {
	name, path, ok := strings.Cut(spec, "=")
	if !ok {
		return nil, fmt.Errorf("islacli: bad -shards %q (want name=shards.json)", spec)
	}
	man, err := isla.LoadShardManifest(path)
	if err != nil {
		return nil, err
	}
	st, err := isla.OpenShardTable(man, db.BaseConfig(), fault)
	if err != nil {
		return nil, err
	}
	db.RegisterSharded(name, st)
	return st, nil
}

// registerGen materializes a "name=dist:key=val,..." spec (the syntax
// shared with islaserv -gen) and registers the table.
func registerGen(db *isla.DB, spec string) error {
	name, store, err := workload.FromSpec(spec)
	if err != nil {
		return err
	}
	db.RegisterStore(name, store)
	return nil
}

// registerLoad opens prefix.000, prefix.001, … as one table in the given
// open mode and returns the store so the caller can Close it when done.
func registerLoad(db *isla.DB, spec string, mode isla.OpenMode) (*isla.Store, error) {
	name, prefix, ok := strings.Cut(spec, "=")
	if !ok {
		return nil, fmt.Errorf("islacli: bad -load %q (want name=prefix)", spec)
	}
	matches, err := filepath.Glob(prefix + ".*")
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("islacli: no block files match %s.*", prefix)
	}
	sort.Strings(matches)
	store, err := isla.OpenFilesMode(mode, matches...)
	if err != nil {
		return nil, err
	}
	db.RegisterStore(name, store)
	return store, nil
}

// registerText loads a one-value-per-line text file.
func registerText(db *isla.DB, spec string) error {
	name, path, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("islacli: bad -txt %q (want name=path)", spec)
	}
	store, err := isla.LoadText(path, 10)
	if err != nil {
		return err
	}
	db.RegisterStore(name, store)
	return nil
}

// registerCSV loads one numeric CSV column: name=path:column.
func registerCSV(db *isla.DB, spec string) error {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("islacli: bad -csv %q (want name=path:column)", spec)
	}
	path, column, ok := strings.Cut(rest, ":")
	if !ok {
		return fmt.Errorf("islacli: bad -csv %q (want name=path:column)", spec)
	}
	store, err := isla.LoadCSV(path, column, 10)
	if err != nil {
		return err
	}
	db.RegisterStore(name, store)
	return nil
}

// runCluster answers one statement on remote islaworker processes. The
// table is whatever the workers serve between them: its shard manifest is
// read from their inventories and registered under the statement's table
// name, so the statement runs through db.Query like every other mode.
func runCluster(out io.Writer, addrs, sql string, fault isla.ClusterConfig) error {
	if sql == "" {
		return fmt.Errorf("islacli: -cluster requires -q")
	}
	parsed, err := isla.ParseQuery(sql)
	if err != nil {
		return err
	}
	list := strings.Split(addrs, ",")
	for i := range list {
		list[i] = strings.TrimSpace(list[i])
	}
	man, err := isla.ShardManifestFromWorkers(list, fault)
	if err != nil {
		return err
	}
	db := isla.NewDB()
	st, err := isla.OpenShardTable(man, db.BaseConfig(), fault)
	if err != nil {
		return err
	}
	defer st.Close()
	db.RegisterSharded(parsed.Table, st)
	return run(out, db, sql)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "islacli: %v\n", err)
	os.Exit(1)
}

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ";") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }
