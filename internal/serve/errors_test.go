package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/engine"
	"isla/internal/workload"
)

// failSource is a shard source whose every phase fails: with err, or — when
// started is set — by announcing itself and then waiting out the query's
// context, the way a call stuck on a dead worker ends.
type failSource struct {
	core.BlockSource // layout only
	err              error
	started          chan struct{}
	once             *sync.Once
}

func (f failSource) fail(ctx context.Context) error {
	if f.started == nil {
		return f.err
	}
	f.once.Do(func() { close(f.started) })
	<-ctx.Done()
	return ctx.Err()
}

func (f failSource) Phase(ctx context.Context, _ []core.PhaseReq, _ *core.Filter) ([]core.PhaseRep, error) {
	return nil, f.fail(ctx)
}

// failShard serves failSource as an ungrouped sharded table.
type failShard struct{ src failSource }

func (sh failShard) Rows() int64                         { return sh.src.TotalLen() }
func (sh failShard) Source(core.Config) core.BlockSource { return sh.src }
func (sh failShard) GroupColumn() string                 { return "" }
func (sh failShard) GroupKeys() []string                 { return nil }
func (sh failShard) GroupSource(string, core.Config) (core.BlockSource, error) {
	return nil, engine.ErrShardUnsupported
}

// TestTypedErrorsOnTheWire walks every typed failure the engine can hand the
// handler — each refusal of its decision table, the data-unavailable and
// server-fault errors of the layers below, unknown tables, deadline and
// cancel — and pins the HTTP status, the error envelope and the /stats
// counter of each, so a new error cannot silently default to 400.
func TestTypedErrorsOnTheWire(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 40_000, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	damaged := block.NewStore(s.Blocks()...)
	damaged.Quarantine(1)
	nans, infs, huge := make([]float64, 1000), make([]float64, 1000), make([]float64, 1000)
	for i := range nans {
		nans[i], infs[i] = float64(i), float64(i)
		if i%50 == 0 {
			nans[i] = math.NaN()
			infs[i] = math.Inf(1 - i%100/25) // +Inf and -Inf in turn
		}
		huge[i] = 1e306 // a finite mean, an infinite sum
	}

	type counters struct{ errored, timedOut, cancelled int64 }
	cases := []struct {
		name    string
		sql     string
		fail    error // what the "remote" table's source returns
		hang    bool  // …or it hangs until the context ends
		timeout int64 // timeout_ms
		cancel  bool  // the client goes away mid-query
		status  int
		want    counters
		// partial: under AllowPartial the statement answers instead, with
		// the Partial accounting of the damaged table's block 1.
		partial bool
	}{
		// decide's refusals.
		{name: "shard: exact scan", sql: "SELECT AVG(v) FROM remote METHOD EXACT",
			status: http.StatusBadRequest, want: counters{errored: 1}},
		{name: "shard: baseline", sql: "SELECT AVG(v) FROM remote METHOD MVB WITH PRECISION 0.5",
			status: http.StatusBadRequest, want: counters{errored: 1}},
		{name: "quarantine: filtered", sql: "SELECT AVG(v) FROM damaged WHERE v <> 100 WITH PRECISION 0.5",
			status: http.StatusServiceUnavailable, want: counters{errored: 1}},
		{name: "quarantine: baseline", sql: "SELECT AVG(v) FROM damaged METHOD US WITH PRECISION 0.5",
			status: http.StatusServiceUnavailable, want: counters{errored: 1}, partial: true},
		{name: "quarantine: time budget", sql: "SELECT AVG(v) FROM damaged WITH TIME 0.2",
			status: http.StatusServiceUnavailable, want: counters{errored: 1}},
		{name: "contradiction", sql: "SELECT AVG(v) FROM sales WHERE v > 5 AND v < 3 WITH PRECISION 0.5",
			status: http.StatusBadRequest, want: counters{errored: 1}},
		// The layers below.
		{name: "core.ErrNoMatch from sampling", sql: "SELECT AVG(v) FROM sales WHERE v > 1e9 WITH PRECISION 0.5",
			status: http.StatusBadRequest, want: counters{errored: 1}},
		{name: "*core.QuarantinedError from the estimator", sql: "SELECT AVG(v) FROM damaged WITH PRECISION 0.5",
			status: http.StatusServiceUnavailable, want: counters{errored: 1}},
		{name: "*block.CorruptBlockError from a scan", sql: "SELECT AVG(v) FROM damaged WHERE v <> 100 METHOD EXACT",
			status: http.StatusServiceUnavailable, want: counters{errored: 1}},
		{name: "*core.BlocksLostError", sql: "SELECT AVG(v) FROM remote WITH PRECISION 0.5",
			fail:   fmt.Errorf("cluster: pilot: %w", &core.BlocksLostError{Blocks: []int{2}}),
			status: http.StatusServiceUnavailable, want: counters{errored: 1}},
		// A sharded time-budgeted run is no refusal: it runs, and its source
		// losing a block is unavailable data.
		{name: "shard: time budget", sql: "SELECT AVG(v) FROM remote WITH TIME 0.2",
			fail:   fmt.Errorf("cluster: pilot: %w", &core.BlocksLostError{Blocks: []int{2}}),
			status: http.StatusServiceUnavailable, want: counters{errored: 1}},
		{name: "*core.PilotStreamError", sql: "SELECT SUM(v) FROM remote WHERE v > 90 WITH PRECISION 0.5",
			fail:   fmt.Errorf("core: filter pilot: %w", &core.PilotStreamError{BlockID: 2, Len: 9, WantLen: 10}),
			status: http.StatusInternalServerError, want: counters{errored: 1}},
		{name: "engine.ErrNonFinite: exact AVG over NaN rows", sql: "SELECT AVG(v) FROM nans METHOD EXACT",
			status: http.StatusBadRequest, want: counters{errored: 1}},
		{name: "engine.ErrNonFinite: exact SUM over NaN rows", sql: "SELECT SUM(v) FROM nans METHOD EXACT",
			status: http.StatusBadRequest, want: counters{errored: 1}},
		{name: "engine.ErrNonFinite: exact AVG over infinite rows", sql: "SELECT AVG(v) FROM infs METHOD EXACT",
			status: http.StatusBadRequest, want: counters{errored: 1}},
		{name: "sampled AVG over NaN rows", sql: "SELECT AVG(v) FROM nans WITH PRECISION 0.5",
			status: http.StatusBadRequest, want: counters{errored: 1}},
		{name: "sampled AVG over infinite rows", sql: "SELECT AVG(v) FROM infs WITH PRECISION 0.5",
			status: http.StatusBadRequest, want: counters{errored: 1}},
		{name: "engine.ErrNonFinite: exact SUM overflowing", sql: "SELECT SUM(v) FROM huge METHOD EXACT",
			status: http.StatusBadRequest, want: counters{errored: 1}},
		{name: "engine.ErrUnknownTable", sql: "SELECT AVG(v) FROM nowhere WITH PRECISION 0.5",
			status: http.StatusNotFound, want: counters{errored: 1}},
		{name: "deadline", sql: "SELECT AVG(v) FROM remote WITH PRECISION 0.5", hang: true, timeout: 20,
			status: http.StatusGatewayTimeout, want: counters{timedOut: 1}},
		{name: "cancel", sql: "SELECT AVG(v) FROM remote WITH PRECISION 0.5", hang: true, cancel: true,
			status: StatusClientClosedRequest, want: counters{cancelled: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := failSource{BlockSource: core.LocalExecutor{S: s}.Source(core.DefaultConfig()), err: tc.fail}
			if tc.hang {
				src.started, src.once = make(chan struct{}), new(sync.Once)
			}
			catalog := engine.NewCatalog()
			catalog.Register("sales", s)
			catalog.Register("damaged", damaged)
			catalog.Register("nans", block.Partition(nans, 4))
			catalog.Register("infs", block.Partition(infs, 4))
			catalog.Register("huge", block.Partition(huge, 4))
			catalog.RegisterSharded("remote", failShard{src})
			eng := engine.New(catalog)
			srv, err := New(Config{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}

			body, _ := json.Marshal(QueryRequest{SQL: tc.sql, TimeoutMS: tc.timeout})
			ctx, cancel := context.WithCancel(t.Context())
			defer cancel()
			req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			if tc.cancel {
				go func() { <-src.started; cancel() }()
			}
			srv.Handler().ServeHTTP(rec, req)

			if rec.Code != tc.status {
				t.Errorf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			var env ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" {
				t.Errorf("body %q is not an error envelope", rec.Body)
			}
			got := counters{srv.errored.Load(), srv.timedOut.Load(), srv.cancelled.Load()}
			if got != tc.want {
				t.Errorf("counters (errored, timed out, cancelled) = %+v, want %+v", got, tc.want)
			}
			if !tc.partial {
				return
			}
			eng.SetAllowPartial(true)
			rec = httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			var res QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &res); rec.Code != http.StatusOK || err != nil || res.Partial == nil ||
				!slices.Equal(res.Partial.MissingBlocks, []int{1}) || res.Partial.CoveredRows != 30_000 {
				t.Errorf("under AllowPartial: status %d, want 200 with block 1 missing: %s", rec.Code, rec.Body)
			}
		})
	}
}
