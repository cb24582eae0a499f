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
// accuracy story — see DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"isla/internal/bench"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id(s), comma separated, or 'all'")
		n      = flag.Int("n", 1_000_000, "dataset size")
		blocks = flag.Int("blocks", 10, "number of blocks")
		seed   = flag.Uint64("seed", 1, "random seed")
		runs   = flag.Int("runs", 5, "repetitions for timing experiments")
		list   = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}

	opts := bench.Options{N: *n, Blocks: *blocks, Seed: *seed, Runs: *runs}

	ids := bench.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	failed := false
	for _, id := range ids {
		id = strings.TrimSpace(id)
		fn, ok := bench.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "islarepro: unknown experiment %q (use -list)\n", id)
			failed = true
			continue
		}
		tab, err := fn(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "islarepro: %s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(tab.String())
	}
	if failed {
		os.Exit(1)
	}
}
