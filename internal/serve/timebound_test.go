package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"isla/internal/metrics"
)

// WITH TIME through POST /query: the §VII-F mode answers over HTTP with
// its CI and budget accounting.
func TestTimeboundSQLRoundTrip(t *testing.T) {
	ts, _, truth := newTestServer(t, Config{})

	resp, body := postQuery(t, ts.URL, QueryRequest{
		SQL: "SELECT AVG(v) FROM sales WITH TIME 0.2 SEED 7",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Method != "ISLA" || qr.Rows != 200000 || qr.Samples == 0 {
		t.Fatalf("diagnostics: %+v", qr)
	}
	if qr.Value < truth-5 || qr.Value > truth+5 {
		t.Fatalf("value %v, truth %v", qr.Value, truth)
	}
	if qr.CI == nil || qr.CI.Lo >= qr.CI.Hi {
		t.Fatalf("bad CI: %+v", qr.CI)
	}
	if qr.AchievedPrecision <= 0 {
		t.Fatalf("achieved_precision = %v, want > 0", qr.AchievedPrecision)
	}
	if qr.Rounds != 5 || qr.Truncated {
		t.Fatalf("a comfortable budget must finish every round: %+v", qr)
	}
}

// When the budget's deadline passes before the schedule's last round the
// answer is truncated, and says so over the wire — with the plan cache off
// or on, since both freeze the pilot and run the same rounds against the
// same deadline.
func TestTimeboundTruncatedOverHTTP(t *testing.T) {
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			// Four slow blocks: the pilot alone outlasts the 5ms budget, so
			// round 1, which always finishes, is the answer.
			eng, _ := newSlowEngine(60 * time.Millisecond)
			if cached {
				eng.EnablePlanCache(0)
			}
			srv, err := New(Config{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			resp, body := postQuery(t, ts.URL, QueryRequest{
				SQL: "SELECT AVG(v) FROM slow WITH TIME 0.005 SEED 1",
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var qr QueryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatal(err)
			}
			if !qr.Truncated {
				t.Fatalf("expected a truncated answer: %+v", qr)
			}
			if qr.Rounds != 1 {
				t.Fatalf("rounds = %d, want round 1 alone", qr.Rounds)
			}
			if qr.CI == nil || qr.Value == 0 || qr.CI.HalfWidth != qr.AchievedPrecision {
				t.Fatalf("a truncated answer still carries round 1's estimate and interval: %+v", qr)
			}
		})
	}
}

// budget_ms is the out-of-band WITH TIME: same engine path, same
// accounting in the response.
func TestBudgetMSRoundTrip(t *testing.T) {
	ts, eng, truth := newTestServer(t, Config{})

	resp, body := postQuery(t, ts.URL, QueryRequest{
		SQL:      "SELECT AVG(v) FROM sales SEED 7",
		BudgetMS: 200,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.AchievedPrecision <= 0 || qr.Rounds == 0 {
		t.Fatalf("budget accounting: %+v", qr)
	}
	if qr.Value < truth-5 || qr.Value > truth+5 {
		t.Fatalf("value %v, truth %v", qr.Value, truth)
	}

	// The budgeted run lands in the timebound metrics class.
	tb := eng.Metrics().Table("sales").Class(metrics.ClassTimebound)
	if tb.Queries.Load() != 1 {
		t.Fatalf("timebound class queries = %d", tb.Queries.Load())
	}
}

// The budget composes with the server deadline: budget ≤ timeout is
// enforced up front with a 400, never raced.
func TestBudgetVsTimeoutInteraction(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{DefaultTimeout: 100 * time.Millisecond})

	cases := []struct {
		name string
		req  QueryRequest
		want int
		body string
	}{
		{"budget over default timeout",
			QueryRequest{SQL: "SELECT AVG(v) FROM sales SEED 1", BudgetMS: 200},
			http.StatusBadRequest, "exceeds the effective timeout"},
		{"budget over explicit timeout",
			QueryRequest{SQL: "SELECT AVG(v) FROM sales SEED 1", TimeoutMS: 50, BudgetMS: 80},
			http.StatusBadRequest, "exceeds the effective timeout"},
		{"huge budget does not overflow",
			QueryRequest{SQL: "SELECT AVG(v) FROM sales SEED 1", TimeoutMS: 50, BudgetMS: int64(1) << 60},
			http.StatusBadRequest, "exceeds the effective timeout"},
		{"negative budget",
			QueryRequest{SQL: "SELECT AVG(v) FROM sales SEED 1", BudgetMS: -5},
			http.StatusBadRequest, "budget_ms must be positive"},
		{"budget with WITH TIME",
			QueryRequest{SQL: "SELECT AVG(v) FROM sales WITH TIME 0.05 SEED 1", BudgetMS: 50},
			http.StatusBadRequest, "already carries WITH TIME"},
		{"budget with WHERE",
			QueryRequest{SQL: "SELECT AVG(v) FROM sales WHERE v > 10 WITH PRECISION 0.5", BudgetMS: 50},
			http.StatusBadRequest, "WHERE"},
		{"budget within timeout",
			QueryRequest{SQL: "SELECT AVG(v) FROM sales SEED 1", TimeoutMS: 5000, BudgetMS: 100},
			http.StatusOK, ""},
	}
	for _, tc := range cases {
		resp, body := postQuery(t, ts.URL, tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
			continue
		}
		if tc.body != "" && !strings.Contains(string(body), tc.body) {
			t.Errorf("%s: body %s missing %q", tc.name, body, tc.body)
		}
	}
}

// GET /metrics serves the whole observability surface in Prometheus text
// format.
func TestMetricsEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})

	for _, req := range []QueryRequest{
		{SQL: "SELECT AVG(v) FROM sales WITH PRECISION 0.5 SEED 3"},
		{SQL: "SELECT AVG(v) FROM sales WHERE v > 95 WITH PRECISION 0.5 SEED 3"},
		{SQL: "SELECT AVG(v) FROM sales SEED 3", BudgetMS: 100},
	} {
		if resp, body := postQuery(t, ts.URL, req); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", req.SQL, resp.StatusCode, body)
		}
	}
	// One admission-path 404 to move a server-level counter.
	if resp, _ := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT AVG(v) FROM nope WITH PRECISION 0.5"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expected 404, got %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)

	for _, want := range []string{
		"# TYPE isla_query_duration_seconds histogram",
		`isla_query_duration_seconds_bucket{table="sales",class="point",le="+Inf"}`,
		`isla_query_latency_seconds{table="sales",class="point",quantile="0.5"}`,
		`isla_query_latency_seconds{table="sales",class="filtered",quantile="0.99"}`,
		`isla_queries_total{table="sales",class="timebound"} 1`,
		`isla_query_samples_total{table="sales",class="point"}`,
		"isla_http_requests_rejected_total 0",
		"isla_http_requests_errored_total 1",
		"isla_http_requests_cancelled_total 0",
		"isla_queries_served_total 3",
		"isla_plancache_hit_rate",
		"isla_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}

	// POST is not allowed.
	pr, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status %d", pr.StatusCode)
	}
}
