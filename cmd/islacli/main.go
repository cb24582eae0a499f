// Command islacli is an interactive shell for ISLA approximate aggregation.
//
// Tables come from binary block files (-load name=prefix, expecting files
// prefix.000, prefix.001, …) or from built-in synthetic generators
// (-gen "name=normal:mu=100,sigma=20,n=1000000,blocks=10"). Grouped
// tables come from -gengroup "name=column;key:dist:params;..." or
// -loadgroup name=manifest.json, and answer GROUP BY / WHERE statements
// per group. Sharded tables keep their blocks on islaworker processes and
// come from a shard manifest (-shards name=shards.json) or from the workers
// themselves (-cluster name=addr,addr,…). Queries are read from -q or line
// by line from stdin:
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

	"isla/internal/engine"
	"isla/internal/tableflags"
)

func main() {
	tables := tableflags.Register(flag.CommandLine, 0)
	q := flag.String("q", "", "execute one query and exit")
	verify := flag.Bool("verify", false, "verify every table's payload checksums against the on-disk bytes, print a report and exit; non-zero status when corruption is found")
	scrub := flag.Bool("scrub", false, "verify payload checksums at startup and quarantine whatever fails before answering queries (combine with -allow-partial to degrade instead of refuse)")
	flag.Parse()

	eng, release, err := tables.Engine()
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

// run executes one statement and prints its answer: the table's on one
// line, or a header and one line per group.
func run(out io.Writer, eng *engine.Engine, sql string) error {
	res, err := eng.ExecuteSQL(sql)
	if err != nil {
		return err
	}
	biased := res.Method.Biased()
	stmt := fmt.Sprintf("method=%s rows=%d samples=%d time=%s", res.Method, res.Rows, res.Samples, res.Duration.Round(10_000))
	if len(res.Groups) == 0 {
		printAnswer(out, fmt.Sprint(res.Query.Agg), res.Answer, biased, stmt)
		return nil
	}
	fmt.Fprintf(out, "%s GROUP BY %s  [%s]\n", res.Query.Agg, res.Query.GroupBy, stmt)
	for _, gr := range res.Groups {
		head := fmt.Sprintf("  %-16q", gr.Group)
		if gr.Err != "" {
			fmt.Fprintf(out, "%s ERROR %s\n", head, gr.Err)
			continue
		}
		printAnswer(out, head, gr.Answer, biased, fmt.Sprintf("rows=%d samples=%d", gr.Rows, gr.Samples))
	}
	return nil
}

// printAnswer prints one answer — the table's or one group's — as a line:
// head = value, its interval, (exact) or, from a biased estimator (METHOD MV
// and MVB), that it has none; the budget and filter accounting, the blocks a
// degraded answer could not reach, then [tail].
func printAnswer(out io.Writer, head string, a engine.Answer, biased bool, tail string) {
	fmt.Fprintf(out, "%s = %.6f", head, a.Value)
	switch {
	case a.CI != nil:
		fmt.Fprintf(out, "  (±%.4g at %.0f%% confidence)", a.CI.HalfWidth, a.CI.Confidence*100)
	case a.Exact:
		fmt.Fprint(out, "  (exact)")
	case biased:
		fmt.Fprint(out, "  (no interval: biased estimator)")
	}
	if a.Truncated {
		fmt.Fprintf(out, "  TRUNCATED (budget deadline after round %d)", a.Rounds)
	}
	if a.Filter != nil {
		fmt.Fprintf(out, "  sel=%.3f", a.Filter.Selectivity)
	}
	if p := a.Partial; p != nil {
		fmt.Fprintf(out, "  PARTIAL (blocks %v unavailable; covers %d of %d rows)", p.MissingBlocks, p.CoveredRows, p.TotalRows)
	}
	fmt.Fprintf(out, "  [%s]\n", tail)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "islacli: %v\n", err)
	os.Exit(1)
}
