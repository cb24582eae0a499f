package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"isla/internal/block"
	"isla/internal/engine"
	"isla/internal/query"
	"isla/internal/serve"
)

// How the traced run divides its --seconds: half on a pass of the
// workload's own load, tracing off (the load.* timings and the counters only
// a loaded system shows; half a 20 s window leaves over 100 answers beyond
// the 95th percentile on the slowest workload), then, on serve_open, the
// rate ladder. The replay and the micro-measurements take what they take (a
// few seconds).
const (
	tracedLoadShare = 0.5
	sweepStepShare  = 0.125
	replayLimit     = 200
	// sweepSLOms is the 95th-percentile limit a rate must hold to count as
	// below the knee.
	sweepSLOms = 10.0
)

// replaySet picks up to replayLimit hot statements, each traffic class in
// proportion to its weight in the mix and at an even stride within the
// class (a class with few distinct statements repeats them), so medians
// and shares over the replay describe the traffic rather than the list of
// distinct statements.
func replaySet(m *mix) []*stmt {
	// A small hot set is replayed at most twice over, to bound the time.
	total := min(replayLimit, 2*len(m.hot))
	var out []*stmt
	for _, c := range m.classes {
		n := int(c.weight*float64(total) + 0.5)
		for i := 0; i < n; i++ {
			out = append(out, &m.hot[c.stmts[i*len(c.stmts)/n]])
		}
	}
	return out
}

// primaryStore is the table the block-layer micro-measurements sample: the
// first ungrouped table in name order.
func primaryStore(local map[string]localTable) *block.Store {
	names := make([]string, 0, len(local))
	for name, t := range local {
		if t.groups == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return local[names[0]].store
}

func runTraced(ctx context.Context, o runOptions, p *prepared, det runDetail) (runDetail, error) {
	vals := make(map[string]float64, len(perLayer))
	sys := p.sys
	window := time.Duration(o.seconds * float64(time.Second))

	// ---- 1. a pass of the workload's own load, tracing off.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	cs0 := sys.cacheStats()
	spin0 := spinScore(spinDur)
	res := runLoad(ctx, p.w, sys, p.m, p.vs.known, o.seed, time.Duration(float64(window)*tracedLoadShare))
	drift := spinDrift(spin0, spinScore(spinDur))
	runtime.ReadMemStats(&ms1)
	cs1 := sys.cacheStats()
	if err := checkCold(ctx, p.oracle, res); err != nil {
		return det, err
	}
	lat := sortedCopy(res.latencies)
	if len(lat) == 0 {
		return det, fmt.Errorf("no statement answered correctly (first error: %v)", res.firstErr)
	}
	vals["load.fail_ratio"] = float64(res.failed) / float64(res.attempted)
	vals["load.dropped"] = float64(res.dropped)
	if len(res.lateness) > 0 {
		vals["load.lateness_p95_ms"] = percentile(sortedCopy(res.lateness), 95)
	}
	// The window's timings, whole: a stall in any second of it shows.
	vals["load.latency_p50_ms"] = percentile(lat, 50)
	vals["load.latency_p95_ms"] = percentile(lat, 95)
	if samplesBeyond(len(lat), 99) >= minBeyond {
		vals["load.latency_p99_ms"] = percentile(lat, 99)
	}
	vals["load.throughput_qps"] = float64(res.ok) / res.window.Seconds()
	vals["load.cpu_ms_per_query"] = float64(res.cpu) / float64(time.Millisecond) / float64(res.ok)
	if lookups := (cs1.Hits - cs0.Hits) + (cs1.Misses - cs0.Misses); lookups > 0 {
		vals["plancache.hit_ratio"] = float64(cs1.Hits-cs0.Hits) / float64(lookups)
	}
	vals["plancache.evictions"] = float64(cs1.Evictions - cs0.Evictions)
	vals["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	vals["runtime.gc_pause_total_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	vals["runtime.heap_inuse_mb"] = float64(ms1.HeapInuse) / (1 << 20)
	vals["workload.datagen_s"] = p.datagenS
	vals["env.spin_score_drift"] = drift
	vals["block.bytes_touched_per_query"] = p.vs.samplesPerQuery * 8
	filterRatios(p.vs, p.m.hot, vals)
	failed := res.failed
	attempted := res.attempted
	firstErr := res.firstErr

	if sys.baseURL != "" {
		st, err := serverStats(ctx, sys.baseURL)
		if err != nil {
			return det, err
		}
		vals["serve.rejected"] = float64(st.Rejected)
		vals["serve.timed_out"] = float64(st.TimedOut)

		// ---- 2. the rate ladder.
		step := time.Duration(float64(window) * sweepStepShare)
		sustained := true // every rate so far held the SLO
		for _, rate := range sweepRates {
			sw := openLoop(ctx, sys.ask, p.m, p.vs.known, o.seed+uint64(rate), rate, step)
			attempted += sw.attempted
			failed += sw.failed - sw.dropped // a drop past the knee is the measurement, not an error
			if firstErr == nil && sw.failed > sw.dropped {
				firstErr = sw.firstErr
			}
			p95 := 0.0
			if len(sw.latencies) > 0 {
				p95 = percentile(sortedCopy(sw.latencies), 95)
			}
			vals[fmt.Sprintf("load.sweep.p95_ms_at_%d", rate)] = p95
			// No backlog growth: what is still queued when the schedule
			// ends is under 50 ms of arrivals. The knee is the last rate of
			// the unbroken run that held: a rate passing after a lower one
			// failed is a noisy step, not capacity.
			sustained = sustained && p95 > 0 && p95 <= sweepSLOms && sw.dropped == 0 && sw.backlog <= rate/20
			if sustained {
				vals["load.knee_qps"] = float64(rate)
			}
		}
	}

	// ---- 3. the staged replay.
	tr, err := replayAll(ctx, p, vals)
	if err != nil {
		return det, err
	}
	attempted += tr.attempted
	failed += tr.failed
	if firstErr == nil {
		firstErr = tr.firstErr
	}

	// ---- 4. single-layer micro-measurements.
	if err := microAll(ctx, p, vals); err != nil {
		return det, err
	}

	tf := traceFile{Workload: o.workload, Seed: o.seed, Env: det.Env, Shares: tr.shares, Ledger: tr.ledger, Spans: tr.spans}
	if err := writeTrace(filepath.Join(o.outDir, o.workload+".trace.json"), tf); err != nil {
		return det, err
	}

	det.Result.Metrics = make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		det.Result.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	det.Result.Attempted, det.Result.Failed = attempted, failed
	det.Result.Correct = failed == 0
	det.OK, det.Samples = res.ok, len(lat)
	det.Noisy = drift > noisyDrift

	fmt.Fprintf(o.log, "workload %s  seed %d  traced pass (load %.1fs, replay of %d statements, %d spans)\n",
		o.workload, o.seed, res.window.Seconds(), tr.statements, len(tr.spans))
	fmt.Fprintf(o.log, "  attempted %d  failed %d\n", attempted, failed)
	if firstErr != nil {
		fmt.Fprintf(o.log, "  first failure: %v\n", firstErr)
	}
	fmt.Fprintf(o.log, "  load pass: n=%d latencies, %d beyond p95, %d beyond p99\n", len(lat), samplesBeyond(len(lat), 95), samplesBeyond(len(lat), 99))
	if hp := highestPercentile(len(lat), minBeyond, []float64{50, 90, 95, 99, 99.9}); hp > 0 {
		fmt.Fprintf(o.log, "  highest percentile with %d samples beyond it: p%g = %.6f ms\n", minBeyond, hp, percentile(lat, hp))
	}
	fmt.Fprintf(o.log, "  where a warm replayed query's time goes (self time by span):")
	names := make([]string, 0, len(tr.ledger))
	for name := range tr.ledger {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return tr.ledger[names[i]] > tr.ledger[names[j]] })
	for _, name := range names {
		fmt.Fprintf(o.log, " %s %.3f", name, tr.ledger[name])
	}
	fmt.Fprintf(o.log, "\n  of which block.* (the sampling kernel) %.3f, cluster.* %.3f\n", tr.shares["kernel"], tr.shares["cluster"])
	if sys.wire != nil {
		fmt.Fprintf(o.log, "  wire per query: cold %.0f bytes / %.1f writes, warm %.0f bytes / %.1f writes\n",
			tr.shares["wire_bytes_cold"], tr.shares["conn_writes_cold"], tr.shares["wire_bytes_warm"], tr.shares["conn_writes_warm"])
	}
	for _, d := range perLayer {
		fmt.Fprintf(o.log, "  %-34s %16.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	return det, nil
}

// filterRatios derives the block layer's useful-over-attempted ratios from
// the verification set's exact counts.
func filterRatios(vs *verificationSet, hot []stmt, vals map[string]float64) {
	var planned, drawn, accepted, resolved, blocks int64
	for i := range hot {
		fi := vs.known[hot[i].SQL].filter
		if fi == nil {
			continue
		}
		planned += fi.Planned
		drawn += fi.Drawn
		accepted += fi.Accepted
		resolved += int64(fi.PrunedBlocks + fi.ContainedBlocks)
		blocks += numBlocks
	}
	if drawn > 0 {
		vals["block.filter_accept_ratio"] = float64(accepted) / float64(drawn)
	}
	if planned > 0 {
		vals["block.pruned_draw_ratio"] = float64(planned-drawn) / float64(planned)
		vals["block.pruned_block_ratio"] = float64(resolved) / float64(blocks)
	}
}

func serverStats(ctx context.Context, base string) (serve.StatsResponse, error) {
	var st serve.StatsResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// traceResult is what the replay hands back beside the metric values.
type traceResult struct {
	spans      []span
	shares     map[string]float64
	ledger     map[string]float64
	statements int
	attempted  int64
	failed     int64
	firstErr   error
}

// replayAll replays the workload's replay set stage by stage, takes the
// whole-call measurements beside it, checks every answer, and turns the
// spans into per-layer values.
func replayAll(ctx context.Context, p *prepared, vals map[string]float64) (*traceResult, error) {
	sys := p.sys
	// The trace engine: same tables, sequential execution so that a
	// parent's time minus its replayed children's is meaningful.
	cat := engine.NewCatalog()
	for name, t := range sys.local {
		switch {
		case sys.shard != nil:
			cat.RegisterSharded(name, sys.shard)
		case t.groups != nil:
			cat.RegisterGrouped(name, t.groups)
		default:
			cat.Register(name, t.store)
		}
	}
	eng := engine.New(cat)
	eng.SetWorkers(0)
	eng.EnablePlanCache(4096)

	// serve_open also measures the handler in-process and over loopback.
	var handler http.Handler
	var hc *http.Client
	var traceURL string
	if sys.baseURL != "" {
		srv, err := serve.New(serve.Config{Engine: eng})
		if err != nil {
			return nil, err
		}
		handler = srv.Handler()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
		served := make(chan struct{})
		go func() {
			defer close(served)
			hs.Serve(l) //nolint:errcheck // returns ErrServerClosed on Close
		}()
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		hc = &http.Client{Transport: tr}
		traceURL = "http://" + l.Addr().String()
		defer func() {
			tr.CloseIdleConnections()
			hs.Close()
			<-served
		}()
	}

	rec := newRecorder()
	rp := newReplayer(rec, cat, sys.local, sys.shard)
	set := replaySet(p.m)
	out := &traceResult{statements: len(set), shares: make(map[string]float64)}
	check := func(what string, s *stmt, got answer) {
		out.attempted++
		if !got.same(p.vs.known[s.SQL].want) {
			out.failed++
			if out.firstErr == nil {
				out.firstErr = fmt.Errorf("%s: %s answer %+v is not bit-identical to the engine's %+v", s.SQL, what, got, p.vs.known[s.SQL].want)
			}
		}
	}
	type wireDelta struct{ bytes, writes float64 }
	var cold, warm []wireDelta
	var respBytes []float64
	parsed := make([]query.Query, len(set))

	for i, s := range set {
		rec.query = i + 1
		q, err := query.Parse(s.SQL)
		if err != nil {
			return nil, err
		}
		parsed[i] = q

		// The staged pipeline. On the sharded workload each statement goes
		// twice, so the first pass of a key is the cold path (pilot
		// threading + scatter) and the second the warm one (scatter only).
		passes := 1
		if sys.wire != nil {
			passes = 2
		}
		for pass := 0; pass < passes; pass++ {
			var b0, w0, miss0 int64
			if sys.wire != nil {
				b0, w0, miss0 = sys.wire.bytes.Load(), sys.wire.writes.Load(), rp.cache.Stats().Misses
			}
			got, err := rp.replay(ctx, s.SQL)
			if err != nil {
				return nil, err
			}
			check("replayed", s, got)
			if sys.wire != nil {
				d := wireDelta{float64(sys.wire.bytes.Load() - b0), float64(sys.wire.writes.Load() - w0)}
				if rp.cache.Stats().Misses > miss0 {
					cold = append(cold, d)
				} else {
					warm = append(warm, d)
				}
			}
		}

		// The whole engine call, warm: once untimed to freeze the pilot,
		// then under a span.
		if _, err := eng.ExecuteContext(ctx, q); err != nil {
			return nil, err
		}
		var res engine.Result
		rec.in("engine.execute", func() { res, err = eng.ExecuteContext(ctx, q) })
		if err != nil {
			return nil, err
		}
		check("trace-engine", s, answerOf(res))

		if handler != nil {
			var rr *httptest.ResponseRecorder
			id := rec.in("serve.handler", func() {
				rr = httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(s.body))
				handler.ServeHTTP(rr, req)
			})
			rec.count(id, "response_bytes", int64(rr.Body.Len()))
			respBytes = append(respBytes, float64(rr.Body.Len()))
			var got answer
			rec.in("serve.roundtrip", func() { got, err = httpAsk(ctx, hc, traceURL, s) })
			if err != nil {
				return nil, err
			}
			check("loopback", s, got)
		}
	}

	// The engine call's own cost. ExecuteContext's wall minus the
	// calculation call it makes is a difference of two numbers a hundred
	// times its size, and comes out below their noise; so it is timed on
	// the one statement whose children cost nothing — an unfiltered COUNT,
	// answered from metadata after the same lookup, config derivation,
	// classification and accounting every statement pays.
	count, err := query.Parse("SELECT COUNT(*) FROM " + parsed[0].Table)
	if err != nil {
		return nil, err
	}
	vals["engine.execute_self_us"] = perUnit(func() int64 {
		for i := 0; i < 256; i++ {
			if _, e := eng.ExecuteContext(ctx, count); e != nil {
				err = e
			}
		}
		return 256
	}) / 1e3
	if err != nil {
		return nil, err
	}

	// Untraced wall for the same statements on the same engine, and the
	// allocation cost of a warm query.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for _, q := range parsed {
		if _, err := eng.ExecuteContext(ctx, q); err != nil {
			return nil, err
		}
	}
	untraced := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	vals["engine.allocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(parsed))
	vals["engine.bytes_per_query"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(parsed))

	out.spans = rec.spans
	spanValues(out, parsed, vals, untraced)
	vals["serve.response_bytes"] = mean(respBytes)
	if sys.wire != nil {
		avg := func(ds []wireDelta) (b, w float64) {
			for _, d := range ds {
				b += d.bytes
				w += d.writes
			}
			n := float64(max(len(ds), 1))
			return b / n, w / n
		}
		cb, cw := avg(cold)
		wb, ww := avg(warm)
		out.shares["wire_bytes_cold"], out.shares["conn_writes_cold"] = cb, cw
		out.shares["wire_bytes_warm"], out.shares["conn_writes_warm"] = wb, ww
		// Weighted by the workload's nominal cold share.
		vals["cluster.wire_bytes_per_query"] = shardColdShare*cb + (1-shardColdShare)*wb
		vals["cluster.conn_writes_per_query"] = shardColdShare*cw + (1-shardColdShare)*ww
	}
	return out, nil
}

// spanValues turns the recorded spans into per-layer values. Times are
// medians over spans (or over statements, where a value is a difference
// between spans of one statement); counts are means.
func spanValues(tr *traceResult, parsed []query.Query, vals map[string]float64, untraced time.Duration) {
	agg := aggregate(tr.spans)
	us := func(name string) float64 {
		if ns := agg[name]; ns != nil {
			return median(ns.durs) / 1e3
		}
		return 0
	}
	vals["query.parse_us"] = us("query.parse")
	vals["query.compile_interval_us"] = us("query.compile_interval")
	vals["core.pilot_us"] = us("core.pilot")
	vals["core.plan_us"] = us("core.plan")
	vals["core.calc_us"] = us("core.calc_whole")
	vals["core.summarize_us"] = us("core.summarize")
	vals["modulate.run_us"] = us("modulate.run")
	vals["modulate.iterations_per_block"] = agg["modulate.run"].meanCount("iterations")
	vals["cluster.pilot_us"] = us("cluster.pilot")
	vals["cluster.calc_us"] = us("cluster.calc")
	vals["core.pilot_samples"] = max(agg["core.pilot"].meanCount("samples"), agg["cluster.pilot"].meanCount("samples"))
	vals["core.calc_samples"] = max(agg["core.calc"].meanCount("samples"), agg["cluster.calc"].meanCount("samples"))

	// Per-statement sums by span name, for the values that are differences.
	type perQuery map[string]float64
	byQuery := make(map[int]perQuery)
	passes := make(map[int]float64) // staged replays per statement
	var missBuild []float64
	for i := range tr.spans {
		s := &tr.spans[i]
		pq := byQuery[s.QueryID]
		if pq == nil {
			pq = make(perQuery)
			byQuery[s.QueryID] = pq
		}
		pq[s.Name] += float64(s.dur())
		if s.Name == "replay" {
			passes[s.QueryID]++
		}
		if s.Name == "plancache.get" && s.Counts["miss"] > 0 {
			missBuild = append(missBuild, float64(s.dur()))
		}
	}
	vals["plancache.miss_build_us"] = median(missBuild) / 1e3

	var calcSelf, handlerSelf, transport, overhead, perGroup []float64
	var stagedNS float64
	for qid, pq := range byQuery {
		n := passes[qid]
		pilots := pq["core.pilot"] + pq["cluster.pilot"]
		if _, sharded := pq["cluster.calc"]; sharded {
			// On shards core.pilot is a whole-call root span beside the
			// replay, not inside it.
			pilots = pq["cluster.pilot"]
			overhead = append(overhead, (pq["cluster.calc"]-pq["core.calc_whole"])/n/1e3)
		} else {
			kernel := pq["block.sample"] + pq["block.filtered_sample"]
			calcSelf = append(calcSelf, (pq["core.calc_whole"]-kernel-pq["modulate.run"])/1e3)
		}
		// Warm query time as staged: one replay without its pilots.
		stagedNS += (pq["replay"] - pilots) / n
		if h, ok := pq["serve.handler"]; ok {
			handlerSelf = append(handlerSelf, (h-pq["engine.execute"])/1e3)
			transport = append(transport, (pq["serve.roundtrip"]-h)/1e3)
		}
		if q := parsed[qid-1]; q.GroupBy != "" {
			perGroup = append(perGroup, pq["engine.execute"]/1e3/float64(len(serveGroups)))
		}
	}
	vals["core.calc_self_us"] = median(calcSelf)
	vals["serve.handler_self_us"] = median(handlerSelf)
	vals["serve.transport_us"] = median(transport)
	vals["cluster.overhead_us"] = median(overhead)
	vals["group.query_us_per_group"] = median(perGroup)
	vals["trace.overhead_ratio"] = stagedNS / float64(untraced)
	tr.ledger = ledger(tr.spans)
	for name, share := range tr.ledger {
		if layer, _, _ := strings.Cut(name, "."); layer == "block" {
			tr.shares["kernel"] += share
		} else if layer == "cluster" {
			tr.shares["cluster"] += share
		}
	}
}

// ramCopy reads every block of s into memory blocks with the same ids.
func ramCopy(s *block.Store) (*block.Store, error) {
	var blocks []block.Block
	for _, b := range s.Blocks() {
		data := make([]float64, 0, b.Len())
		if err := b.Scan(func(v float64) error { data = append(data, v); return nil }); err != nil {
			return nil, err
		}
		blocks = append(blocks, block.NewMemBlock(b.ID(), data))
	}
	return block.NewStore(blocks...), nil
}

// microAll fills the values that come from timing one public function of
// one layer in isolation.
func microAll(ctx context.Context, p *prepared, vals map[string]float64) error {
	sys := p.sys
	prim := primaryStore(sys.local)
	vs, err := sampleValues(prim)
	if err != nil {
		return err
	}
	vals["stats.moments_add_ns"] = momentsAddNS(vs)
	if vals["leverage.add_shifted_ns"], err = addShiftedNS(vs); err != nil {
		return err
	}
	vals["exec.dispatch_us_per_task"] = dispatchUS(ctx)
	vals["plancache.get_hit_ns"] = cacheHitNS(ctx)
	if vals["cluster.gob_us_per_rpc"], err = gobUS(); err != nil {
		return err
	}

	mem := prim
	if fm, ok := p.w.(*filteredMmap); ok {
		// The same values in RAM, beside the mapped and the pread view.
		if mem, err = ramCopy(prim); err != nil {
			return err
		}
		if vals["block.mmap.sample_ns"], err = sampleNS(prim, microDraws); err != nil {
			return err
		}
		if vals["block.mmap.filtered_ns_per_draw"], err = filteredNS(prim); err != nil {
			return err
		}
		if vals["block.mmap.open_ms"], err = openMS(block.ModeMmap, fm.paths); err != nil {
			return err
		}
		if vals["block.pread.open_ms"], err = openMS(block.ModePread, fm.paths); err != nil {
			return err
		}
		blocks := make([]block.Block, 0, len(fm.paths))
		for i, path := range fm.paths {
			b, err := block.Open(i, path, block.ModePread)
			if err != nil {
				block.NewStore(blocks...).Close()
				return err
			}
			blocks = append(blocks, b)
		}
		pread := block.NewStore(blocks...)
		// One chunk per block: a pread draw costs a syscall's share, not a load.
		vals["block.pread.sample_ns"], err = sampleNS(pread, block.ChunkSize)
		pread.Close()
		if err != nil {
			return err
		}
	}
	// Back to back, because block.gather_ns is their difference.
	vals["stats.rng_fill_ns"] = rngFillNS(mem.Block(0).Len())
	if vals["block.mem.sample_ns"], err = sampleNS(mem, microDraws); err != nil {
		return err
	}
	if vals["block.mem.filtered_ns_per_draw"], err = filteredNS(mem); err != nil {
		return err
	}
	vals["block.gather_ns"] = vals["block.mem.sample_ns"] - vals["stats.rng_fill_ns"]

	if sys.shard != nil {
		addr := sys.shard.Manifest().Shards[0].Addr
		if vals["cluster.rpc_roundtrip_us"], err = rpcRoundTripUS(addr); err != nil {
			return err
		}
	}
	return nil
}
