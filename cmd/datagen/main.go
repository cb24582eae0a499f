// Command datagen materializes synthetic workloads as ISLA binary block
// files, simulating the paper's "data pre-processed and saved in b
// documents" setup.
//
//	datagen -dist normal -mu 100 -sigma 20 -n 10000000 -blocks 10 -out /tmp/sales
//
// writes /tmp/sales.000 … /tmp/sales.009, loadable by islacli -load or
// isla.OpenFiles.
package main

import (
	"flag"
	"fmt"
	"os"

	"isla/internal/block"
	"isla/internal/stats"
	"isla/internal/workload"
)

func main() {
	var (
		dist   = flag.String("dist", "normal", "normal|exponential|uniform|salary|tlc|tpch")
		mu     = flag.Float64("mu", 100, "normal mean")
		sigma  = flag.Float64("sigma", 20, "normal standard deviation")
		gamma  = flag.Float64("gamma", 0.1, "exponential rate")
		lo     = flag.Float64("lo", 1, "uniform lower bound")
		hi     = flag.Float64("hi", 199, "uniform upper bound")
		n      = flag.Int("n", 1_000_000, "number of values")
		blocks = flag.Int("blocks", 10, "number of block files")
		seed   = flag.Uint64("seed", 1, "random seed")
		out    = flag.String("out", "", "output prefix (required)")
		format = flag.String("format", "v3", "ISLB format: v3 (summary footers + payload checksums, default), v2 (summary footers) or v1 (legacy, for compat fixtures)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "datagen: -out is required")
		os.Exit(2)
	}
	if *blocks <= 0 {
		fmt.Fprintf(os.Stderr, "datagen: block count %d must be positive\n", *blocks)
		os.Exit(2)
	}

	var (
		store *block.Store
		truth float64
		err   error
	)
	switch *dist {
	case "normal":
		store, truth, err = workload.Normal(*mu, *sigma, *n, 1, *seed)
	case "exponential", "exp":
		store, truth, err = workload.Exponential(*gamma, *n, 1, *seed)
	case "uniform":
		store, truth, err = workload.UniformRange(*lo, *hi, *n, 1, *seed)
	case "salary":
		store, truth, err = workload.Salary(*n, 1, *seed)
	case "tlc":
		store, truth, err = workload.TLCTrips(*n, 1, *seed)
	case "tpch":
		store, truth, err = workload.TPCHLineitem(*n, 1, *seed)
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown distribution %q\n", *dist)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}

	// Re-partition the single in-memory block into files.
	data := make([]float64, 0, store.TotalLen())
	if err := store.Scan(func(v float64) error { data = append(data, v); return nil }); err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
		os.Exit(1)
	}
	switch *format {
	case "v3":
		fileStore, err := block.WritePartitioned(*out, data, *blocks)
		if err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		fileStore.Close() // datagen only writes; release the mappings immediately
	case "v2", "v1":
		write := block.WriteFileV2
		if *format == "v1" {
			write = block.WriteFileV1
		}
		for i := 0; i < *blocks; i++ {
			lo := i * len(data) / *blocks
			hi := (i + 1) * len(data) / *blocks
			path := fmt.Sprintf("%s.%03d", *out, i)
			if err := write(path, data[lo:hi]); err != nil {
				fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
				os.Exit(1)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown format %q (want v1, v2 or v3)\n", *format)
		os.Exit(2)
	}
	var m stats.Moments
	m.AddSlice(data)
	fmt.Printf("wrote %d values (%d blocks, ISLB %s) to %s.*\n", len(data), *blocks, *format, *out)
	fmt.Printf("distribution mean %.4f, empirical mean %.4f, stddev %.4f\n", truth, m.Mean(), m.StdDev())
}
