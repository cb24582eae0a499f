// Command islaworker serves data blocks to an ISLA coordinator over
// net/rpc — one "subsidiary" of the paper's §VII-E deployment. Blocks come
// from binary block files or a built-in generator (for demos).
//
//	islaworker -listen 127.0.0.1:7070 -load /data/sales        # sales.000…
//	islaworker -listen 127.0.0.1:7071 -gen normal:n=1000000
//
// Then, from any machine that can reach the workers:
//
//	islacli -cluster sales=127.0.0.1:7070,127.0.0.1:7071 \
//	        -q "SELECT AVG(v) FROM sales WITH PRECISION 0.1"
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"isla"
	"isla/internal/block"
	"isla/internal/tableflags"
	"isla/internal/workload"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:0", "address to serve on")
		load     = flag.String("load", "", "block file prefix (expects prefix.000…)")
		gen      = flag.String("gen", "", "synthetic spec dist:key=val,... (demo mode)")
		baseID   = flag.Int("base-id", 0, "first block id served by this worker")
		manifest = flag.String("manifest", "", "shard manifest to validate the served blocks against before listening")
		shAddr   = flag.String("shard-addr", "", "this worker's address in -manifest (defaults to -listen)")
	)
	var files tableflags.Flags
	files.RegisterOpen(flag.CommandLine)
	flag.Parse()

	var blocks []isla.Block
	switch {
	case *load != "":
		var err error
		if blocks, err = files.OpenPrefix(*load, *baseID); err != nil {
			fmt.Fprintf(os.Stderr, "islaworker: %v\n", err)
			os.Exit(1)
		}
	case *gen != "":
		var err error
		if blocks, err = genBlocks(*gen, *baseID); err != nil {
			fmt.Fprintf(os.Stderr, "islaworker: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "islaworker: need -load or -gen")
		os.Exit(2)
	}

	if *manifest != "" {
		addr := *shAddr
		if addr == "" {
			addr = *listen
		}
		if err := validateManifest(*manifest, addr, blocks); err != nil {
			fmt.Fprintf(os.Stderr, "islaworker: %v\n", err)
			os.Exit(1)
		}
	}

	w := isla.NewWorker(blocks...)
	l, err := w.ListenAndServe(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "islaworker: %v\n", err)
		os.Exit(1)
	}
	var total int64
	for _, b := range blocks {
		total += b.Len()
	}
	fmt.Printf("islaworker: serving %d blocks (%d rows) on %s\n", len(blocks), total, l.Addr())

	// Serve until interrupted or the accept loop dies, then close the
	// listener and every open connection so in-flight coordinator calls
	// fail fast instead of hanging.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	exit := 0
	select {
	case <-ctx.Done():
		fmt.Println("islaworker: shutting down")
	case err := <-w.ServeError():
		fmt.Fprintf(os.Stderr, "islaworker: accept failed: %v\n", err)
		exit = 1
	}
	w.Close()
	for _, b := range blocks {
		if c, ok := b.(io.Closer); ok {
			c.Close() // release block file handles
		}
	}
	os.Exit(exit)
}

// validateManifest checks the loaded blocks against this worker's entry in
// the shard manifest (a valid manifest lists each address once) with the coordinator's own admission check
// (ShardEntry.Check): every assigned block must be present at the recorded
// length. Failing fast here beats being rejected by the coordinator later.
func validateManifest(path, addr string, blocks []isla.Block) error {
	man, err := isla.LoadShardManifest(path)
	if err != nil {
		return err
	}
	var entry *isla.ShardEntry
	for i := range man.Shards {
		if man.Shards[i].Addr == addr {
			entry = &man.Shards[i]
			break
		}
	}
	if entry == nil {
		return fmt.Errorf("address %q not in shard manifest %s", addr, path)
	}
	serves := make(map[int]int64, len(blocks))
	for _, b := range blocks {
		serves[b.ID()] = b.Len()
	}
	return entry.Check(serves)
}

// genBlocks generates a synthetic table from a workload spec ("dist:key=val,..."
// — workload.FromSpec's grammar, with 4 blocks unless the spec sets blocks=)
// and renumbers its blocks from baseID, so several workers can serve
// disjoint id ranges.
func genBlocks(spec string, baseID int) ([]isla.Block, error) {
	dist, params, _ := strings.Cut(spec, ":")
	_, s, _, err := workload.FromSpec("gen=" + dist + ":" + strings.TrimSuffix("blocks=4,"+params, ","))
	if err != nil {
		return nil, err
	}
	out := make([]isla.Block, 0, s.NumBlocks())
	for i, blk := range s.Blocks() {
		out = append(out, block.NewMemBlock(baseID+i, blk.(*block.MemBlock).Data()))
	}
	return out, nil
}
