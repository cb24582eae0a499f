// Command islaworker serves data blocks to an ISLA coordinator over
// net/rpc — one "subsidiary" of the paper's §VII-E deployment. Blocks come
// from binary block files or a built-in generator (for demos).
//
//	islaworker -listen 127.0.0.1:7070 -load /data/sales        # sales.000…
//	islaworker -listen 127.0.0.1:7071 -gen normal:n=1000000
//
// Then, from any machine that can reach the workers:
//
//	islacli -cluster 127.0.0.1:7070,127.0.0.1:7071 \
//	        -q "SELECT AVG(v) FROM cluster WITH PRECISION 0.1"
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
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
		s, err := genStore(*gen, *baseID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "islaworker: %v\n", err)
			os.Exit(1)
		}
		blocks = s
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
// the shard manifest: every assigned block must be present at the recorded
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
	have := make(map[int]int64, len(blocks))
	for _, b := range blocks {
		have[b.ID()] = b.Len()
	}
	for i, id := range entry.Blocks {
		l, ok := have[id]
		if !ok {
			return fmt.Errorf("manifest assigns block %d to %s, but it is not loaded", id, addr)
		}
		if l != entry.Lens[i] {
			return fmt.Errorf("block %d has %d rows, manifest records %d", id, l, entry.Lens[i])
		}
	}
	return nil
}

// genStore parses "dist:key=val,..." into re-identified blocks.
func genStore(spec string, baseID int) ([]isla.Block, error) {
	dist, params, _ := strings.Cut(spec, ":")
	kv := map[string]float64{"mu": 100, "sigma": 20, "gamma": 0.1, "lo": 1, "hi": 199,
		"n": 1_000_000, "blocks": 4, "seed": 1}
	if params != "" {
		for _, p := range strings.Split(params, ",") {
			k, v, ok := strings.Cut(p, "=")
			if !ok {
				return nil, fmt.Errorf("bad param %q", p)
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q", v)
			}
			kv[strings.TrimSpace(k)] = f
		}
	}
	n, b, seed := int(kv["n"]), int(kv["blocks"]), uint64(kv["seed"])
	var (
		s   *block.Store
		err error
	)
	switch strings.ToLower(dist) {
	case "normal", "":
		s, _, err = workload.Normal(kv["mu"], kv["sigma"], n, b, seed)
	case "exp", "exponential":
		s, _, err = workload.Exponential(kv["gamma"], n, b, seed)
	case "uniform":
		s, _, err = workload.UniformRange(kv["lo"], kv["hi"], n, b, seed)
	case "tpch":
		s, _, err = workload.TPCHLineitem(n, b, seed)
	default:
		return nil, fmt.Errorf("unknown distribution %q", dist)
	}
	if err != nil {
		return nil, err
	}
	// Re-identify so several workers can serve disjoint id ranges.
	out := make([]isla.Block, 0, s.NumBlocks())
	for i, blk := range s.Blocks() {
		mb := blk.(*block.MemBlock)
		out = append(out, block.NewMemBlock(baseID+i, mb.Data()))
	}
	return out, nil
}
