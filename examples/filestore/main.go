// Filestore: the paper's on-disk deployment — a column written as ISLB v2
// block files (summary footers included), reopened as a store and
// aggregated without ever loading the data into memory. Where the platform
// supports it the files are memory-mapped: sampling is a zero-copy slice
// gather out of the page cache, and the exact mean below is answered from
// the persisted footers without a scan. On other platforms the store falls
// back to batched positioned reads. Release the mappings/handles with
// Close when done.
//
//	go run ./examples/filestore
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"isla"
	"isla/internal/stats"
)

func main() {
	dir, err := os.MkdirTemp("", "isla-filestore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// One million readings ~ N(100, 20²), written as 8 block files.
	r := stats.NewRNG(42)
	dist := stats.Normal{Mu: 100, Sigma: 20}
	values := make([]float64, 1_000_000)
	for i := range values {
		values[i] = dist.Sample(r)
	}
	prefix := filepath.Join(dir, "readings")
	if _, err := isla.WriteFiles(prefix, values, 8); err != nil {
		log.Fatal(err)
	}

	// Reopen the files as a store — the handles stay open until Close.
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s.%03d", prefix, i)
	}
	store, err := isla.OpenFiles(paths...)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	cfg := isla.DefaultConfig()
	cfg.Precision = 0.1
	cfg.Seed = 7
	res, err := isla.Estimate(context.Background(), store, cfg)
	if err != nil {
		log.Fatal(err)
	}
	exact, err := store.ExactMean()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("file-backed AVG : %.4f  (±%.2f at %.0f%% confidence)\n",
		res.Estimate, res.CI.HalfWidth, res.CI.Confidence*100)
	fmt.Printf("exact AVG       : %.4f\n", exact)
	fmt.Printf("samples touched : %d of %d rows (%.2f%%)\n",
		res.TotalSamples, store.TotalLen(),
		100*float64(res.TotalSamples)/float64(store.TotalLen()))
}
