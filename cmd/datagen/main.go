// Command datagen materializes synthetic workloads as ISLA binary block
// files, simulating the paper's "data pre-processed and saved in b
// documents" setup.
//
//	datagen -gen normal:mu=100,sigma=20,n=10000000,blocks=10 -out /tmp/sales
//
// writes /tmp/sales.000 … /tmp/sales.009, loadable by islacli -load or
// isla.OpenFiles. -gen takes the "dist:key=val,..." grammar islacli,
// islaserv and islaworker -gen take (workload.FromSpec): normal, exp,
// uniform, salary, tlc, tpch or noniid, with n, blocks and seed. -format
// picks the ISLB writer: v3 (default), v2 or v1. A bad -gen or -format, or
// a missing -out, exits with status 2 before anything is written.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"isla/internal/block"
	"isla/internal/stats"
	"isla/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is datagen with its arguments and output streams; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		gen    = fs.String("gen", "normal", "workload spec dist:key=val,... (normal, exp, uniform, salary, tlc, tpch or noniid; n, blocks, seed)")
		out    = fs.String("out", "", "output prefix (required)")
		format = fs.String("format", "v3", "ISLB format: v3 (summary footers + payload checksums, default), v2 (summary footers) or v1 (legacy, for compat fixtures)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "datagen: -out is required")
		return 2
	}
	write, ok := map[string]func(string, []float64) error{
		"v3": block.WriteFile, "v2": block.WriteFileV2, "v1": block.WriteFileV1,
	}[*format]
	if !ok {
		fmt.Fprintf(stderr, "datagen: unknown format %q (want v1, v2 or v3)\n", *format)
		return 2
	}
	_, store, truth, err := workload.FromSpec("gen=" + *gen)
	if err != nil {
		fmt.Fprintf(stderr, "datagen: %v\n", err)
		return 2
	}

	var m stats.Moments
	for i, b := range store.Blocks() {
		data := b.(*block.MemBlock).Data()
		if err := write(fmt.Sprintf("%s.%03d", *out, i), data); err != nil {
			fmt.Fprintf(stderr, "datagen: %v\n", err)
			return 1
		}
		m.AddSlice(data)
	}
	fmt.Fprintf(stdout, "wrote %d values (%d blocks, ISLB %s) to %s.*\n", store.TotalLen(), store.NumBlocks(), *format, *out)
	fmt.Fprintf(stdout, "distribution mean %.4f, empirical mean %.4f, stddev %.4f\n", truth, m.Mean(), m.StdDev())
	return 0
}
