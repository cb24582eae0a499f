package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"isla/internal/block"
	"isla/internal/core"
	"isla/internal/engine"
	"isla/internal/workload"
)

// failExecutor is a shard executor whose every pipeline call fails: with err,
// or — when started is set — by announcing itself and then waiting out the
// query's context, the way a call stuck on a dead worker ends.
type failExecutor struct {
	core.LocalExecutor // layout and fingerprint only
	err                error
	started            chan struct{}
	once               *sync.Once
}

func (f failExecutor) fail(ctx context.Context) error {
	if f.started == nil {
		return f.err
	}
	f.once.Do(func() { close(f.started) })
	<-ctx.Done()
	return ctx.Err()
}

func (f failExecutor) FreezePilot(ctx context.Context, _ core.Config) (core.FrozenPilot, error) {
	return core.FrozenPilot{}, f.fail(ctx)
}

func (f failExecutor) FreezeFilterPilot(ctx context.Context, _ core.Config, _ core.Filter) (core.FilterPilot, error) {
	return core.FilterPilot{}, f.fail(ctx)
}

// failShard serves failExecutor as an ungrouped sharded table.
type failShard struct{ ex failExecutor }

func (sh failShard) Rows() int64             { return sh.ex.TotalLen() }
func (sh failShard) Executor() core.Executor { return sh.ex }
func (sh failShard) GroupColumn() string     { return "" }
func (sh failShard) GroupKeys() []string     { return nil }
func (sh failShard) GroupExecutor(string) (core.Executor, error) {
	return nil, engine.ErrShardUnsupported
}

// TestTypedErrorsOnTheWire walks every typed failure the engine can hand the
// handler — each refusal of its decision table, the data-unavailable and
// server-fault errors of the layers below, unknown tables, deadline and
// cancel — and pins the HTTP status and the /stats counter of each, so a new
// error cannot silently default to 400.
func TestTypedErrorsOnTheWire(t *testing.T) {
	s, _, err := workload.Normal(100, 20, 40_000, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	damaged := block.NewStore(s.Blocks()...)
	damaged.Quarantine(1)

	type counters struct{ errored, timedOut, cancelled int64 }
	cases := []struct {
		name    string
		sql     string
		fail    error // what the "remote" table's executor returns
		hang    bool  // …or it hangs until the context ends
		timeout int64 // timeout_ms
		cancel  bool  // the client goes away mid-query
		status  int
		want    counters
	}{
		// decide's refusals.
		{name: "shard: exact scan", sql: "SELECT AVG(v) FROM remote METHOD EXACT",
			status: http.StatusBadRequest, want: counters{errored: 1}},
		{name: "shard: baseline", sql: "SELECT AVG(v) FROM remote METHOD US WITH PRECISION 0.5",
			status: http.StatusBadRequest, want: counters{errored: 1}},
		{name: "shard: time budget", sql: "SELECT AVG(v) FROM remote WITH TIME 0.2",
			status: http.StatusBadRequest, want: counters{errored: 1}},
		{name: "quarantine: filtered", sql: "SELECT AVG(v) FROM damaged WHERE v <> 100 WITH PRECISION 0.5",
			status: http.StatusServiceUnavailable, want: counters{errored: 1}},
		{name: "quarantine: baseline", sql: "SELECT AVG(v) FROM damaged METHOD US WITH PRECISION 0.5",
			status: http.StatusServiceUnavailable, want: counters{errored: 1}},
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
		{name: "*core.PilotStreamError", sql: "SELECT SUM(v) FROM remote WHERE v > 90 WITH PRECISION 0.5",
			fail:   fmt.Errorf("core: filter pilot: %w", &core.PilotStreamError{BlockID: 2, Len: 9, WantLen: 10}),
			status: http.StatusInternalServerError, want: counters{errored: 1}},
		{name: "engine.ErrUnknownTable", sql: "SELECT AVG(v) FROM nowhere WITH PRECISION 0.5",
			status: http.StatusNotFound, want: counters{errored: 1}},
		{name: "deadline", sql: "SELECT AVG(v) FROM remote WITH PRECISION 0.5", hang: true, timeout: 20,
			status: http.StatusGatewayTimeout, want: counters{timedOut: 1}},
		{name: "cancel", sql: "SELECT AVG(v) FROM remote WITH PRECISION 0.5", hang: true, cancel: true,
			status: StatusClientClosedRequest, want: counters{cancelled: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := failExecutor{LocalExecutor: core.LocalExecutor{S: s}, err: tc.fail}
			if tc.hang {
				ex.started, ex.once = make(chan struct{}), new(sync.Once)
			}
			catalog := engine.NewCatalog()
			catalog.Register("sales", s)
			catalog.Register("damaged", damaged)
			catalog.RegisterSharded("remote", failShard{ex})
			srv, err := New(Config{Engine: engine.New(catalog)})
			if err != nil {
				t.Fatal(err)
			}

			body, _ := json.Marshal(QueryRequest{SQL: tc.sql, TimeoutMS: tc.timeout})
			ctx, cancel := context.WithCancel(t.Context())
			defer cancel()
			req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			if tc.cancel {
				go func() { <-ex.started; cancel() }()
			}
			srv.Handler().ServeHTTP(rec, req)

			if rec.Code != tc.status {
				t.Errorf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			got := counters{srv.errored.Load(), srv.timedOut.Load(), srv.cancelled.Load()}
			if got != tc.want {
				t.Errorf("counters (errored, timed out, cancelled) = %+v, want %+v", got, tc.want)
			}
		})
	}
}
