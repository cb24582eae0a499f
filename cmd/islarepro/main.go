// Command islarepro regenerates the paper's tables and figures (§VIII).
// Performance is measured elsewhere: `go run ./benchmark`.
//
// Usage:
//
//	islarepro -exp table3            # one experiment
//	islarepro -exp table3,fig6a     # several
//	islarepro -exp all              # everything
//	islarepro -list                 # show available experiment ids
//
// Flags -n, -blocks, -seed and -runs scale the workloads; defaults fit a
// laptop (the paper's 10¹⁰-row runs scale down without changing the
// accuracy story: the Eq.-1 sample size depends on σ, e and β, not on the
// row count). -n, -blocks and -runs below 1 exit with status 2; an unknown
// or failing experiment makes the exit status 1 after the others print.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"isla/internal/repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is islarepro with its arguments and output streams; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("islarepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiment id(s), comma separated, or 'all'")
		n      = fs.Int("n", 1_000_000, "dataset size")
		blocks = fs.Int("blocks", 10, "number of blocks")
		seed   = fs.Uint64("seed", 1, "random seed")
		runs   = fs.Int("runs", 5, "repetitions for timing experiments")
		list   = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, size := range []struct {
		flag string
		v    int
	}{{"n", *n}, {"blocks", *blocks}, {"runs", *runs}} {
		if size.v < 1 {
			fmt.Fprintf(stderr, "islarepro: -%s must be at least 1, got %d\n", size.flag, size.v)
			return 2
		}
	}

	if *list {
		for _, e := range repro.Experiments {
			fmt.Fprintln(stdout, e.ID)
		}
		return 0
	}

	byID := make(map[string]repro.Experiment, len(repro.Experiments))
	var ids []string
	for _, e := range repro.Experiments {
		byID[e.ID] = e
		ids = append(ids, e.ID)
	}
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	opts := repro.Options{N: *n, Blocks: *blocks, Seed: *seed, Runs: *runs}
	status := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := byID[id]
		if !ok {
			fmt.Fprintf(stderr, "islarepro: unknown experiment %q (use -list)\n", id)
			status = 1
			continue
		}
		tab, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "islarepro: %s: %v\n", id, err)
			status = 1
			continue
		}
		fmt.Fprintln(stdout, tab.String())
	}
	return status
}
