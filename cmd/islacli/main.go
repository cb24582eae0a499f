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
	"strings"

	"isla/internal/cluster"
	"isla/internal/engine"
	"isla/internal/query"
	"isla/internal/tableflags"
)

func main() {
	tables := tableflags.Register(flag.CommandLine, 0)
	clusterAddrs := flag.String("cluster", "", "comma-separated islaworker addresses; runs -q on the sharded table they serve between them (its manifest is read from the workers; the same block id on two addresses is a replica)")
	callTimeout := flag.Duration("call-timeout", 0, "per-RPC deadline for -cluster/-shards calls (0 = default, negative disables)")
	rpcRetries := flag.Int("rpc-retries", 0, "retries per -cluster/-shards call on transient failure before failing over (0 = default, negative disables)")
	rpcBackoff := flag.Duration("rpc-backoff", 0, "base retry backoff for -cluster/-shards calls, doubled per attempt with jitter (0 = default, negative disables)")
	q := flag.String("q", "", "execute one query and exit")
	verify := flag.Bool("verify", false, "verify every table's payload checksums against the on-disk bytes, print a report and exit; non-zero status when corruption is found")
	scrub := flag.Bool("scrub", false, "verify payload checksums at startup and quarantine whatever fails before answering queries (combine with -allow-partial to degrade instead of refuse)")
	flag.Parse()

	fault := cluster.Config{
		CallTimeout:  *callTimeout,
		MaxRetries:   *rpcRetries,
		BaseBackoff:  *rpcBackoff,
		AllowPartial: tables.AllowPartial,
	}
	if *clusterAddrs != "" {
		if err := runCluster(os.Stdout, *clusterAddrs, *q, fault); err != nil {
			fatal(err)
		}
		return
	}

	eng, release, err := tables.Engine(fault)
	defer release() // the block mappings/handles and worker connections
	if err != nil {
		fatal(err)
	}
	names := eng.Catalog.Names()
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "islacli: no tables; use -gen or -load")
		os.Exit(2)
	}
	if *verify || *scrub {
		corrupt, err := runScrub(eng, tables.Workers)
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
	fmt.Printf("tables: %s\n", strings.Join(names, ", "))

	if *q != "" {
		if err := run(os.Stdout, eng, *q); err != nil {
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
			fmt.Println(strings.Join(names, "\n"))
		default:
			if err := run(os.Stdout, eng, line); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
		}
		fmt.Print("isla> ")
	}
}

// runScrub verifies every table's payload checksums, quarantines the
// failures, prints one summary line per table and returns how many corrupt
// blocks were found across all tables.
func runScrub(eng *engine.Engine, workers int) (int, error) {
	reports, err := eng.Scrub(context.Background(), workers)
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

func run(out io.Writer, eng *engine.Engine, sql string) error {
	res, err := eng.ExecuteSQL(sql)
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

// runCluster answers one statement on remote islaworker processes. The
// table is whatever the workers serve between them: its shard manifest is
// read from their inventories and registered under the statement's table
// name, so the statement runs through the engine like every other mode.
func runCluster(out io.Writer, addrs, sql string, fault cluster.Config) error {
	if sql == "" {
		return fmt.Errorf("islacli: -cluster requires -q")
	}
	parsed, err := query.Parse(sql)
	if err != nil {
		return err
	}
	list := strings.Split(addrs, ",")
	for i := range list {
		list[i] = strings.TrimSpace(list[i])
	}
	man, err := cluster.ManifestFromWorkers(list, fault, nil)
	if err != nil {
		return err
	}
	eng := engine.New(engine.NewCatalog())
	st, err := cluster.NewShardTable(man, eng.BaseConfig(), fault, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	eng.Catalog.RegisterSharded(parsed.Table, st)
	return run(out, eng, sql)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "islacli: %v\n", err)
	os.Exit(1)
}
