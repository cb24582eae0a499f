// Command islaserv serves ISLA approximate aggregation over HTTP/JSON.
//
// Tables come from the same sources as islacli — synthetic generators,
// text or CSV files, or binary block files (-load name=prefix, serviced
// zero-copy via mmap by default; -open pread forces positioned reads) —
// and queries arrive as POST /query bodies:
//
//	islaserv -gen "sales=normal:mu=100,sigma=20,n=1000000,blocks=10" -addr :8080
//	curl -s localhost:8080/query -d '{"sql":"SELECT AVG(v) FROM sales WITH PRECISION 0.1"}'
//
// Grouped tables come from -gengroup specs or -loadgroup manifests
// (written by WriteGroupFiles / group.WriteFiles); GROUP BY and WHERE
// statements then answer per group with per-group errors in the JSON body.
//
// Endpoints: POST /query, GET /tables, GET /healthz, GET /stats. The
// pilot-plan cache is on by default (-cache 0 or less disables it), so repeat
// queries on a table skip the pre-estimation pilot; an admission-control
// semaphore (-inflight) bounds concurrently executing queries and rejects
// the excess with 503. SIGINT/SIGTERM drain in-flight requests before
// exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"isla/internal/cluster"
	"isla/internal/serve"
	"isla/internal/tableflags"
)

func main() {
	tables := tableflags.Register(flag.CommandLine, -1)
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		blocks   = flag.Int("blocks", 10, "block count for -txt/-csv tables")
		cache    = flag.Int("cache", 128, "pilot-plan cache capacity; <= 0 disables the cache")
		timeout  = flag.Duration("timeout", 30*time.Second, "default per-query execution timeout (requests may override via timeout_ms)")
		maxTime  = flag.Duration("max-timeout", 5*time.Minute, "upper bound on any per-query timeout")
		inflight = flag.Int("inflight", 64, "admission control: max concurrently executing queries; excess requests get 503 (-1 disables)")
		grace    = flag.Duration("grace", 10*time.Second, "shutdown grace period for draining in-flight requests")
		scrubOn  = flag.Bool("scrub-on-load", false, "verify every table's payload checksums before serving; corrupt blocks are quarantined and the server starts degraded")
	)
	flag.Parse()

	tables.TextBlocks = *blocks
	eng, release, err := tables.Engine(cluster.Config{})
	defer release() // block mappings/handles and worker connections, on shutdown
	if err != nil {
		fatal(err)
	}
	names := eng.Catalog.Names()
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "islaserv: no tables; use -gen, -txt, -csv or -load, e.g.\n"+
			`  islaserv -gen "sales=normal:mu=100,sigma=20,n=1000000,blocks=10"`)
		os.Exit(2)
	}
	if *cache > 0 {
		eng.EnablePlanCache(*cache)
	}
	if *scrubOn {
		reports, err := eng.Scrub(context.Background(), tables.Workers)
		if err != nil {
			fatal(err)
		}
		for _, tr := range reports {
			log.Printf("islaserv: scrub %s: %s", tr.Table, tr.Report.String())
		}
	}

	srv, err := serve.New(serve.Config{
		Engine:         eng,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTime,
		MaxInFlight:    *inflight,
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("islaserv: serving %s on %s (cache=%d, inflight=%d)",
		strings.Join(names, ", "), *addr, *cache, *inflight)

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	log.Printf("islaserv: shutting down, draining for up to %v", *grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("islaserv: shutdown: %v", err)
	}
}

func fatal(err error) {
	if errors.Is(err, http.ErrServerClosed) {
		return
	}
	fmt.Fprintf(os.Stderr, "islaserv: %v\n", err)
	os.Exit(1)
}
