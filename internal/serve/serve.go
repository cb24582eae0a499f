// Package serve is the HTTP/JSON front end of the query engine — the
// paper's "system serving heavy traffic" face. It exposes the engine over
// five stdlib-only endpoints:
//
//	POST /query    {"sql": "...", "timeout_ms": 500, "budget_ms": 50}  → answer + CI + diagnostics
//	GET  /tables   registered tables with row/block counts
//	GET  /healthz  liveness probe; reports "degraded" with the quarantined
//	               blocks when storage corruption was found
//	GET  /stats    windowed QPS, latency quantiles, cache + error counters
//	GET  /metrics  the same observability in Prometheus text format
//	POST /scrub    verify every table's payload checksums, quarantine what
//	               fails, report per table
//
// Concurrency control is two-layered: the engine itself is safe for
// concurrent use (immutable base config, per-query derived configs, plan
// cache with single-flight pilots), and the server adds admission control
// — a semaphore bounding concurrently executing queries; requests beyond
// the bound are rejected with 503 rather than queued without bound.
// Per-request timeouts map to context deadlines on the engine call and
// surface as 504; a client hanging up surfaces as the nginx-style 499
// (never counted as a server error). budget_ms switches the statement to
// the §VII-F latency-budget mode ("answer in ≤ budget at the best
// precision you can"): the statement runs as online rounds against a
// deadline at the budget, the first round always finishing, and a round
// the deadline stops is dropped rather than failing the query — the
// response reports truncated, achieved_precision and rounds. The budget
// must fit under the request's effective deadline, so a budgeted query is
// never killed by the timeout it was trying to beat.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/engine"
	"isla/internal/metrics"
	"isla/internal/query"
)

// StatusClientClosedRequest is the non-standard (nginx-convention) status
// for requests whose client went away before the answer was ready.
const StatusClientClosedRequest = 499

// Config tunes the server.
type Config struct {
	// Engine executes the queries. Required.
	Engine *engine.Engine
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 30s; negative disables).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request timeout_ms (default 5m; negative
	// removes the cap — DefaultTimeout still applies to requests that
	// don't override it).
	MaxTimeout time.Duration
	// MaxInFlight bounds concurrently executing queries; further requests
	// are rejected with 503 (default 64; negative disables admission
	// control).
	MaxInFlight int
}

func (c Config) normalize() Config {
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	return c
}

// Server is the HTTP front end. Create with New, mount via Handler.
type Server struct {
	eng       *engine.Engine
	cfg       Config
	sem       chan struct{}
	mux       *http.ServeMux
	rejected  atomic.Int64
	timedOut  atomic.Int64
	cancelled atomic.Int64
	errored   atomic.Int64
}

// New returns a server over cfg.Engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("serve: nil engine")
	}
	cfg = cfg.normalize()
	s := &Server{eng: cfg.Engine, cfg: cfg}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/tables", s.handleTables)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/scrub", s.handleScrub)
	return s, nil
}

// Handler returns the root handler, suitable for http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// QueryRequest is the POST /query body.
type QueryRequest struct {
	SQL string `json:"sql"`
	// TimeoutMS bounds this query's execution; 0 means the server
	// default. Values are capped at the server's MaxTimeout; negative
	// values are rejected with 400.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// BudgetMS switches the statement to the latency-budget mode: the
	// engine answers the last round of sampling the budget completed and
	// reports the precision that bought (equivalent to the SQL WITH TIME clause,
	// which the statement must then not carry itself). The budget must
	// fit under the request's effective timeout; larger budgets are
	// rejected with 400 rather than silently raced against the deadline.
	BudgetMS int64 `json:"budget_ms,omitempty"`
}

// CIResponse is a confidence interval in the wire format.
type CIResponse struct {
	Center     float64 `json:"center"`
	HalfWidth  float64 `json:"half_width"`
	Confidence float64 `json:"confidence"`
	Lo         float64 `json:"lo"`
	Hi         float64 `json:"hi"`
}

// QueryResponse is the POST /query answer. GROUP BY statements answer in
// Groups (one row per group key, sorted; the top-level value is then zero
// and samples sums across groups); WHERE statements carry their selectivity
// diagnostics in filter.
type QueryResponse struct {
	SQL        string          `json:"sql"`
	Method     string          `json:"method"`
	DurationMS float64         `json:"duration_ms"`
	GroupBy    string          `json:"group_by,omitempty"`
	Groups     []GroupResponse `json:"groups,omitempty"`
	answerJSON
}

// GroupResponse is one group's row in a grouped answer. A group that
// failed carries its error and zero values — its siblings still answer,
// and the HTTP status stays 200.
type GroupResponse struct {
	Group string `json:"group"`
	answerJSON
	Error string `json:"error,omitempty"`
}

// answerJSON is one answer in the wire format: the table's, at the top level
// of a QueryResponse, or one group's in a GroupResponse — both filled by
// answerOf.
type answerJSON struct {
	Value   float64 `json:"value"`
	Rows    int64   `json:"rows"`
	Samples int64   `json:"samples"`
	// Exact marks a value computed by scan or from metadata, not sampled.
	Exact       bool  `json:"exact,omitempty"`
	PilotCached bool  `json:"pilot_cached,omitempty"`
	PilotSize   int64 `json:"pilot_size,omitempty"`
	// Fallback marks an unfiltered ISLA answer replaced by the plain mean
	// of its own draws (engine.Answer.Fallback).
	Fallback bool `json:"fallback,omitempty"`
	// Truncated, AchievedPrecision and Rounds report the latency-budget
	// accounting of a WITH TIME / budget_ms run: the half-width its
	// completed rounds earned and how many completed (fewer than the
	// schedule's five exactly when Truncated; every round covers every
	// block).
	Truncated         bool             `json:"truncated,omitempty"`
	AchievedPrecision float64          `json:"achieved_precision,omitempty"`
	Rounds            int              `json:"rounds,omitempty"`
	CI                *CIResponse      `json:"ci,omitempty"`
	Filter            *FilterResponse  `json:"filter,omitempty"`
	Partial           *PartialResponse `json:"partial,omitempty"`
}

// answerOf converts one engine answer to the wire format.
func answerOf(a engine.Answer) answerJSON {
	out := answerJSON{
		Value:             a.Value,
		Rows:              a.Rows,
		Samples:           a.Samples,
		Exact:             a.Exact,
		PilotCached:       a.PilotCached,
		PilotSize:         a.PilotSize,
		Fallback:          a.Fallback,
		Truncated:         a.Truncated,
		AchievedPrecision: a.AchievedPrecision,
		Rounds:            a.Rounds,
	}
	if ci := a.CI; ci != nil {
		out.CI = &CIResponse{Center: ci.Center, HalfWidth: ci.HalfWidth, Confidence: ci.Confidence, Lo: ci.Lo(), Hi: ci.Hi()}
	}
	if a.Filter != nil {
		f := FilterResponse(*a.Filter)
		out.Filter = &f
	}
	if a.Partial != nil {
		p := PartialResponse(*a.Partial)
		out.Partial = &p
	}
	return out
}

// PartialResponse marks a degraded answer: quarantined or lost blocks were
// excluded and the value describes only the covered fraction of the table.
// Present only when the engine runs with AllowPartial.
type PartialResponse struct {
	MissingBlocks []int `json:"missing_blocks"`
	CoveredRows   int64 `json:"covered_rows"`
	TotalRows     int64 `json:"total_rows"`
}

// FilterResponse reports predicate rejection-sampling diagnostics,
// including the zone-map pruning work: planned counts the raw draws the
// sampling plan allocated, drawn the physically serviced subset, and
// pruned_blocks/contained_blocks how many blocks the persisted summaries
// resolved without filtering.
type FilterResponse struct {
	Planned         int64   `json:"planned"`
	Drawn           int64   `json:"drawn"`
	Accepted        int64   `json:"accepted"`
	Selectivity     float64 `json:"selectivity"`
	PrunedBlocks    int     `json:"pruned_blocks,omitempty"`
	ContainedBlocks int     `json:"contained_blocks,omitempty"`
}

// ErrorResponse is the JSON error envelope.
type ErrorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the connection is gone if this fails
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	// A statement is at most a few hundred bytes; cap the body so one
	// client cannot exhaust memory before admission control runs.
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<10)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, errors.New("missing sql"))
		return
	}

	// Admission control: reject beyond the in-flight bound instead of
	// queueing without bound.
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.rejected.Add(1)
			// Queries are short; tell well-behaved clients when to retry.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, errors.New("server at capacity, retry later"))
			return
		}
	}

	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS != 0 {
		// Disabling the deadline is operator-only (negative
		// DefaultTimeout); a client cannot opt out of MaxTimeout.
		if req.TimeoutMS < 0 {
			writeError(w, http.StatusBadRequest, errors.New("timeout_ms must be positive"))
			return
		}
		// Cap in integer milliseconds BEFORE converting to a Duration:
		// time.Duration(1<<60) * time.Millisecond overflows int64 to a
		// negative duration, which used to skip both the MaxTimeout cap
		// (negative < MaxTimeout) and the deadline (negative ≤ 0) — a
		// client-controlled escape from the operator's timeout.
		ms := req.TimeoutMS
		if s.cfg.MaxTimeout > 0 && ms > s.cfg.MaxTimeout.Milliseconds() {
			ms = s.cfg.MaxTimeout.Milliseconds()
		} else if ms > math.MaxInt64/int64(time.Millisecond) {
			// No cap configured: clamp to the largest representable
			// duration instead of overflowing.
			ms = math.MaxInt64 / int64(time.Millisecond)
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}

	// Parse after the deadline arithmetic so budget_ms can stand in for a
	// missing precision clause: a budgeted statement parses through
	// ParseWithTimeBudget, which injects the budget before the parser's
	// cross-field validation (a precision-less AVG is otherwise rejected).
	var q query.Query
	var err error
	if req.BudgetMS != 0 {
		if req.BudgetMS < 0 {
			writeError(w, http.StatusBadRequest, errors.New("budget_ms must be positive"))
			return
		}
		// The budget composes with the server deadline: it must fit
		// under the effective timeout (compare in milliseconds — a huge
		// budget_ms must not overflow either). A budget racing the very
		// deadline it is meant to beat would turn "best answer in ≤ t"
		// back into a 504 coin flip.
		if timeout > 0 && req.BudgetMS > timeout.Milliseconds() {
			writeError(w, http.StatusBadRequest, fmt.Errorf(
				"budget_ms %d exceeds the effective timeout %v; raise timeout_ms or lower the budget",
				req.BudgetMS, timeout))
			return
		}
		q, err = query.ParseWithTimeBudget(req.SQL, float64(req.BudgetMS)/1000)
	} else {
		q, err = query.Parse(req.SQL)
	}
	if err != nil {
		s.errored.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// serverDeadline records whether the deadline below belongs to this
	// server, so an expiry is reported as the timeout that actually
	// fired — not as a server timeout that was never armed (e.g. when
	// the operator disabled DefaultTimeout and the request's own context
	// expired).
	serverDeadline := timeout > 0
	if serverDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	res, err := s.eng.ExecuteContext(ctx, q)
	if err != nil {
		var qe *core.QuarantinedError
		var lost *core.BlocksLostError
		var corrupt *block.CorruptBlockError
		var stream *core.PilotStreamError
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.timedOut.Add(1)
			if serverDeadline {
				writeError(w, http.StatusGatewayTimeout, fmt.Errorf("query timed out after %v", timeout))
			} else {
				writeError(w, http.StatusGatewayTimeout, errors.New("query exceeded the request's own deadline (no server timeout configured)"))
			}
		case errors.Is(err, context.Canceled):
			// The client hung up; that is not a server error and must
			// not pollute the operator's error rate.
			s.cancelled.Add(1)
			writeError(w, StatusClientClosedRequest, errors.New("client closed request"))
		case errors.Is(err, engine.ErrUnknownTable):
			s.errored.Add(1)
			writeError(w, http.StatusNotFound, err)
		case errors.As(err, &qe), errors.As(err, &lost), errors.As(err, &corrupt):
			// Blocks are quarantined here, lost with no live replica on a
			// shard tier, or a scan hit corrupt bytes, and the statement
			// cannot degrade (or degradation is off): the data is
			// unavailable, not the request malformed.
			s.errored.Add(1)
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.As(err, &stream):
			// A worker's pilot stream did not end where the coordinator
			// predicted: a fault between our own processes.
			s.errored.Add(1)
			writeError(w, http.StatusInternalServerError, err)
		default:
			s.errored.Add(1)
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}

	resp := QueryResponse{
		SQL:        req.SQL,
		Method:     res.Method.String(),
		DurationMS: float64(res.Duration.Microseconds()) / 1000,
		GroupBy:    res.Query.GroupBy,
		answerJSON: answerOf(res.Answer),
	}
	for _, gr := range res.Groups {
		resp.Groups = append(resp.Groups, GroupResponse{Group: gr.Group, answerJSON: answerOf(gr.Answer), Error: gr.Err})
	}
	writeJSON(w, http.StatusOK, resp)
}

// TableInfo is one row of GET /tables. Grouped tables report their group
// count and group column; sharded tables report the manifest's block
// view (the blocks themselves live on the islaworkers).
type TableInfo struct {
	Name        string `json:"name"`
	Rows        int64  `json:"rows"`
	Blocks      int    `json:"blocks"`
	Groups      int    `json:"groups,omitempty"`
	GroupColumn string `json:"group_column,omitempty"`
	Sharded     bool   `json:"sharded,omitempty"`
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	names := s.eng.Catalog.Names()
	infos := make([]TableInfo, 0, len(names))
	for _, n := range names {
		tbl, err := s.eng.Catalog.Lookup(n)
		if err != nil {
			continue // raced with a concurrent drop; skip
		}
		info := TableInfo{Name: n, Rows: tbl.Rows()}
		switch {
		case tbl.Shard != nil:
			ids, _ := tbl.Shard.Source(core.Config{}).Layout() // no worker is asked
			info.Blocks = len(ids)
			info.Sharded = true
			if col := tbl.Shard.GroupColumn(); col != "" {
				info.Groups = len(tbl.Shard.GroupKeys())
				info.GroupColumn = col
			}
		default:
			info.Blocks = tbl.Store.NumBlocks()
		}
		if tbl.Groups != nil {
			info.Groups = len(tbl.Groups.Groups())
			info.GroupColumn = tbl.Groups.Column()
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

// HealthResponse is the GET /healthz body. Status is "ok", or "degraded"
// when storage corruption has been quarantined — the server still answers
// (queries degrade or refuse per statement), so the HTTP status stays 200
// and load balancers keep the node in rotation while the operator repairs.
type HealthResponse struct {
	Status string `json:"status"`
	// Quarantined maps damaged table names to their quarantined block ids.
	Quarantined map[string][]int `json:"quarantined,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok"}
	if quarantined := s.eng.QuarantinedBlocks(); len(quarantined) > 0 {
		resp.Status = "degraded"
		resp.Quarantined = quarantined
	}
	writeJSON(w, http.StatusOK, resp)
}

// TableStats is one table's serving counters in GET /stats. QPS10 and
// QPS60 are windowed rates over the trailing 10 and 60 seconds — the
// operator-facing load signal — while Queries is the lifetime count.
type TableStats struct {
	Queries   int64   `json:"queries"`
	QPS10     float64 `json:"qps_10s"`
	QPS60     float64 `json:"qps_60s"`
	P50MS     float64 `json:"latency_p50_ms"`
	P99MS     float64 `json:"latency_p99_ms"`
	Samples   int64   `json:"samples"`
	Truncated int64   `json:"truncated"`
}

// CacheStats mirrors the plan cache counters in GET /stats. HitRate is
// hits/(hits+misses), 0 before any lookup.
type CacheStats struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	Entries   int     `json:"entries"`
	HitRate   float64 `json:"hit_rate"`
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	InFlight      int64   `json:"in_flight"`
	Served        int64   `json:"served"`
	Rejected      int64   `json:"rejected"`
	TimedOut      int64   `json:"timed_out"`
	Cancelled     int64   `json:"cancelled"`
	Errored       int64   `json:"errored"`
	// QPS10/QPS60 are completed queries per second over the trailing 10
	// and 60 seconds, across all tables.
	QPS10 float64 `json:"qps_10s"`
	QPS60 float64 `json:"qps_60s"`
	// SamplesPerQuery is the lifetime mean of samples drawn per
	// completed query; TruncationRate the fraction of completed queries
	// whose latency budget truncated the answer.
	SamplesPerQuery float64               `json:"samples_per_query"`
	TruncationRate  float64               `json:"truncation_rate"`
	PerTable        map[string]TableStats `json:"per_table"`
	Cache           *CacheStats           `json:"cache,omitempty"`
	// ScrubRuns/ScrubChecked/ScrubCorrupt are lifetime integrity-scrub
	// counters; Quarantined maps damaged tables to their quarantined
	// block ids (absent while the store is healthy).
	ScrubRuns    int64            `json:"scrub_runs"`
	ScrubChecked int64            `json:"scrub_checked"`
	ScrubCorrupt int64            `json:"scrub_corrupt"`
	Quarantined  map[string][]int `json:"quarantined,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	es := s.eng.Stats()
	reg := s.eng.Metrics()
	tables := reg.Tables()
	resp := StatsResponse{
		UptimeSeconds: es.Uptime.Seconds(),
		InFlight:      es.InFlight,
		Served:        es.Served,
		Rejected:      s.rejected.Load(),
		TimedOut:      s.timedOut.Load(),
		Cancelled:     s.cancelled.Load(),
		Errored:       s.errored.Load(),
		QPS10:         reg.QPS(10 * time.Second),
		QPS60:         reg.QPS(60 * time.Second),
		PerTable:      make(map[string]TableStats, len(tables)),
		ScrubRuns:     es.ScrubRuns,
		ScrubChecked:  es.ScrubChecked,
		ScrubCorrupt:  es.ScrubCorrupt,
	}
	if len(es.Quarantined) > 0 {
		resp.Quarantined = es.Quarantined
	}
	if q, samples, truncated := reg.Totals(); q > 0 {
		resp.SamplesPerQuery = float64(samples) / float64(q)
		resp.TruncationRate = float64(truncated) / float64(q)
	}
	for _, name := range tables {
		tm := reg.Table(name)
		queries, samples, truncated := tm.Totals()
		resp.PerTable[name] = TableStats{
			Queries:   queries,
			QPS10:     reg.TableQPS(name, 10*time.Second),
			QPS60:     reg.TableQPS(name, 60*time.Second),
			P50MS:     1000 * tm.Quantile(0.5),
			P99MS:     1000 * tm.Quantile(0.99),
			Samples:   samples,
			Truncated: truncated,
		}
	}
	if es.Cache != nil {
		resp.Cache = &CacheStats{
			Hits:      es.Cache.Hits,
			Misses:    es.Cache.Misses,
			Evictions: es.Cache.Evictions,
			Entries:   es.Cache.Entries,
		}
		if lookups := es.Cache.Hits + es.Cache.Misses; lookups > 0 {
			resp.Cache.HitRate = float64(es.Cache.Hits) / float64(lookups)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics renders the engine's registry plus the server-level
// counters in the Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use GET"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	s.eng.Metrics().WritePrometheus(w)

	es := s.eng.Stats()
	metrics.WriteHeader(w, "isla_http_requests_rejected_total", "Requests rejected by admission control (503).", "counter")
	metrics.WriteSample(w, "isla_http_requests_rejected_total", nil, float64(s.rejected.Load()))
	metrics.WriteHeader(w, "isla_http_requests_timeout_total", "Requests that exceeded their deadline (504).", "counter")
	metrics.WriteSample(w, "isla_http_requests_timeout_total", nil, float64(s.timedOut.Load()))
	metrics.WriteHeader(w, "isla_http_requests_cancelled_total", "Requests whose client hung up (499).", "counter")
	metrics.WriteSample(w, "isla_http_requests_cancelled_total", nil, float64(s.cancelled.Load()))
	metrics.WriteHeader(w, "isla_http_requests_errored_total", "Requests that failed with a query error (400, 404, 500 or a 503 for unavailable data).", "counter")
	metrics.WriteSample(w, "isla_http_requests_errored_total", nil, float64(s.errored.Load()))
	metrics.WriteHeader(w, "isla_queries_in_flight", "Queries executing right now.", "gauge")
	metrics.WriteSample(w, "isla_queries_in_flight", nil, float64(es.InFlight))
	metrics.WriteHeader(w, "isla_queries_served_total", "Queries completed since start.", "counter")
	metrics.WriteSample(w, "isla_queries_served_total", nil, float64(es.Served))
	metrics.WriteHeader(w, "isla_uptime_seconds", "Seconds since the engine started.", "gauge")
	metrics.WriteSample(w, "isla_uptime_seconds", nil, es.Uptime.Seconds())

	quarantined := 0
	for _, ids := range es.Quarantined {
		quarantined += len(ids)
	}
	metrics.WriteHeader(w, "isla_quarantined_blocks", "Blocks quarantined for corruption across all tables.", "gauge")
	metrics.WriteSample(w, "isla_quarantined_blocks", nil, float64(quarantined))
	metrics.WriteHeader(w, "isla_scrub_runs_total", "Integrity scrubs completed since start.", "counter")
	metrics.WriteSample(w, "isla_scrub_runs_total", nil, float64(es.ScrubRuns))
	metrics.WriteHeader(w, "isla_scrub_checked_total", "Blocks whose payload checksum a scrub verified.", "counter")
	metrics.WriteSample(w, "isla_scrub_checked_total", nil, float64(es.ScrubChecked))
	metrics.WriteHeader(w, "isla_scrub_corrupt_total", "Corrupt blocks found by scrubs.", "counter")
	metrics.WriteSample(w, "isla_scrub_corrupt_total", nil, float64(es.ScrubCorrupt))

	if es.Cache != nil {
		metrics.WriteHeader(w, "isla_plancache_hits_total", "Plan-cache hits.", "counter")
		metrics.WriteSample(w, "isla_plancache_hits_total", nil, float64(es.Cache.Hits))
		metrics.WriteHeader(w, "isla_plancache_misses_total", "Plan-cache misses.", "counter")
		metrics.WriteSample(w, "isla_plancache_misses_total", nil, float64(es.Cache.Misses))
		metrics.WriteHeader(w, "isla_plancache_evictions_total", "Plan-cache evictions.", "counter")
		metrics.WriteSample(w, "isla_plancache_evictions_total", nil, float64(es.Cache.Evictions))
		metrics.WriteHeader(w, "isla_plancache_entries", "Plan-cache resident entries.", "gauge")
		metrics.WriteSample(w, "isla_plancache_entries", nil, float64(es.Cache.Entries))
		metrics.WriteHeader(w, "isla_plancache_hit_rate", "Plan-cache hits/(hits+misses).", "gauge")
		rate := 0.0
		if lookups := es.Cache.Hits + es.Cache.Misses; lookups > 0 {
			rate = float64(es.Cache.Hits) / float64(lookups)
		}
		metrics.WriteSample(w, "isla_plancache_hit_rate", nil, rate)
	}
}

// ScrubErrorResponse is one corrupt block in a POST /scrub report.
type ScrubErrorResponse struct {
	Block int    `json:"block"`
	Path  string `json:"path"`
	Error string `json:"error"`
}

// TableScrubResponse is one table's integrity report in POST /scrub.
type TableScrubResponse struct {
	Table    string               `json:"table"`
	Blocks   int                  `json:"blocks"`
	Verified int                  `json:"verified"`
	Skipped  int                  `json:"skipped"`
	Corrupt  []ScrubErrorResponse `json:"corrupt,omitempty"`
}

// ScrubResponse is the POST /scrub body: every table's payload checksums
// verified, corrupt blocks quarantined and reported.
type ScrubResponse struct {
	Healthy    bool                 `json:"healthy"`
	DurationMS float64              `json:"duration_ms"`
	Tables     []TableScrubResponse `json:"tables"`
}

// handleScrub verifies every registered table's payload checksums against
// the on-disk bytes, quarantining whatever fails. It is an operator
// endpoint: POST-only, runs under the request's context (point a generous
// client timeout at it for large stores), and answers with the per-table
// report. An I/O failure — unreadable bytes rather than a failed checksum
// — aborts with 500.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("use POST"))
		return
	}
	reports, err := s.eng.Scrub(r.Context(), -1)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := ScrubResponse{Healthy: true}
	for _, tr := range reports {
		t := TableScrubResponse{
			Table:    tr.Table,
			Blocks:   tr.Report.Blocks,
			Verified: tr.Report.Verified,
			Skipped:  tr.Report.Skipped,
		}
		for _, ce := range tr.Report.Corrupt {
			t.Corrupt = append(t.Corrupt, ScrubErrorResponse{
				Block: ce.BlockID,
				Path:  ce.Path,
				Error: ce.Err.Error(),
			})
			resp.Healthy = false
		}
		resp.DurationMS += float64(tr.Report.Duration.Microseconds()) / 1000
		resp.Tables = append(resp.Tables, t)
	}
	writeJSON(w, http.StatusOK, resp)
}
