// Command benchmark is the repo's one layered benchmark: four workloads,
// four gated end-to-end metrics measured with tracing off, and a per-layer
// ledger — the client-observed timings among it — measured from outside the
// layers in a separate traced pass. See README.md in this directory for the
// glossary and the prediction table.
//
//	go run ./benchmark                       # whole suite, each workload in its own process
//	go run ./benchmark -workload scan_heavy  # one end-to-end pass
//	go run ./benchmark -workload scan_heavy -trace 1
//	go run ./benchmark -repeat 3 -out a.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

// envStamp records where and on what a result was produced.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
}

func stampEnv(seed uint64) envStamp {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envStamp{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload in this process (default: the whole suite, one process per workload)")
		seed         = flag.Uint64("seed", 1, "workload seed: the same seed gives the same data, statements and arrival schedule")
		seconds      = flag.Float64("seconds", 20, "length of the measured window")
		trace        = flag.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass with the per-layer metrics")
		repeat       = flag.Int("repeat", 1, "suite mode: run the whole suite this many times and report medians and quartiles")
		out          = flag.String("out", "", "suite mode: write the results document here (default benchmark/out/results.json)")
		compare      = flag.Bool("compare", false, "compare two results documents: -compare old.json new.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	outDir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}

	if *workloadName == "" {
		os.Exit(runSuite(ctx, suiteOptions{seed: *seed, seconds: *seconds, repeat: *repeat, outDir: outDir, outFile: *out}))
	}

	det, err := runWorkload(ctx, runOptions{
		workload: *workloadName, seed: *seed, seconds: *seconds, traced: *trace != 0,
		shrink: 1, outDir: outDir, log: os.Stdout,
	})
	if err != nil {
		fatal(err)
	}
	if err := writeDetail(outDir, det); err != nil {
		fatal(err)
	}
	line, err := json.Marshal(det.Result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	os.Exit(exitCode(det.Result))
}

// exitCode is non-zero when any answer was wrong or any operation failed.
func exitCode(r runResult) int {
	if !r.Correct || r.Failed != 0 {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
