package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"isla/internal/block"
	"isla/internal/engine"
	"isla/internal/stats"
	"isla/internal/workload"
)

// newTestServer builds a server over a synthetic normal table.
func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *engine.Engine, float64) {
	t.Helper()
	s, truth, err := workload.Normal(100, 20, 200000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := engine.NewCatalog()
	catalog.Register("sales", s)
	eng := engine.New(catalog)
	eng.EnablePlanCache(0)
	cfg.Engine = eng
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, eng, truth
}

func postQuery(t *testing.T, url string, req QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp
}

func TestQueryRoundTrip(t *testing.T) {
	ts, _, truth := newTestServer(t, Config{})

	const sql = "SELECT AVG(v) FROM sales WITH PRECISION 0.5 SEED 7"
	resp, body := postQuery(t, ts.URL, QueryRequest{SQL: sql})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if math.Abs(qr.Value-truth) > 1.0 {
		t.Fatalf("value %v, truth %v", qr.Value, truth)
	}
	if qr.CI == nil || qr.CI.Lo >= qr.CI.Hi || qr.CI.Confidence != 0.95 {
		t.Fatalf("bad CI: %+v", qr.CI)
	}
	if qr.Rows != 200000 || qr.Samples == 0 || qr.Method != "ISLA" {
		t.Fatalf("diagnostics: %+v", qr)
	}
	if qr.PilotCached {
		t.Fatal("first query must run a cold pilot")
	}

	// The repeat query hits the plan cache: same answer, pilot skipped.
	resp2, body2 := postQuery(t, ts.URL, QueryRequest{SQL: sql})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	var qr2 QueryResponse
	if err := json.Unmarshal(body2, &qr2); err != nil {
		t.Fatal(err)
	}
	if !qr2.PilotCached {
		t.Fatal("repeat query must hit the plan cache")
	}
	if qr2.Value != qr.Value || qr2.Samples != qr.Samples {
		t.Fatalf("warm answer differs: %v/%d vs %v/%d", qr2.Value, qr2.Samples, qr.Value, qr.Samples)
	}
}

func TestQueryErrors(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  QueryRequest
		want int
	}{
		{"bad sql", QueryRequest{SQL: "SELECT FROG(v) FROM sales"}, http.StatusBadRequest},
		{"missing sql", QueryRequest{}, http.StatusBadRequest},
		{"unknown table", QueryRequest{SQL: "SELECT AVG(v) FROM nope WITH PRECISION 0.5"}, http.StatusNotFound},
		{"negative timeout", QueryRequest{SQL: "SELECT COUNT(*) FROM sales", TimeoutMS: -1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postQuery(t, ts.URL, tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: no JSON error envelope: %s", tc.name, body)
		}
	}

	// GET on /query is not allowed.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query status %d", resp.StatusCode)
	}
}

func TestTablesAndHealthz(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})
	var infos []TableInfo
	getJSON(t, ts.URL+"/tables", &infos)
	if len(infos) != 1 || infos[0].Name != "sales" || infos[0].Rows != 200000 || infos[0].Blocks != 8 {
		t.Fatalf("tables = %+v", infos)
	}
	var health map[string]string
	resp := getJSON(t, ts.URL+"/healthz", &health)
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, health)
	}
}

// slowBlock delays every sampling call so timeout and admission tests can
// observe a query mid-flight.
type slowBlock struct {
	*block.MemBlock
	delay   time.Duration
	started chan struct{} // closed on first sample of any block
	once    *sync.Once    // shared across the store's blocks
}

func (b *slowBlock) sleep() {
	b.once.Do(func() { close(b.started) })
	time.Sleep(b.delay)
}

func (b *slowBlock) SampleInto(r *stats.RNG, dst []float64) error {
	b.sleep()
	return b.MemBlock.SampleInto(r, dst)
}

func newSlowEngine(delay time.Duration) (*engine.Engine, chan struct{}) {
	data := make([]float64, 4096)
	for i := range data {
		data[i] = float64(i%100) + 1
	}
	started := make(chan struct{})
	once := new(sync.Once)
	blocks := make([]block.Block, 4)
	for i := range blocks {
		blocks[i] = &slowBlock{
			MemBlock: block.NewMemBlock(i, data),
			delay:    delay,
			started:  started,
			once:     once,
		}
	}
	catalog := engine.NewCatalog()
	catalog.Register("slow", block.NewStore(blocks...))
	return engine.New(catalog), started
}

func TestQueryTimeout504(t *testing.T) {
	eng, _ := newSlowEngine(50 * time.Millisecond)
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postQuery(t, ts.URL, QueryRequest{
		SQL:       "SELECT AVG(v) FROM slow WITH PRECISION 0.5 SEED 1",
		TimeoutMS: 20,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d want 504 (%s)", resp.StatusCode, body)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.TimedOut != 1 {
		t.Fatalf("timed_out = %d", st.TimedOut)
	}
}

func TestAdmissionControl503(t *testing.T) {
	eng, started := newSlowEngine(300 * time.Millisecond)
	srv, err := New(Config{Engine: eng, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, _ := postQuery(t, ts.URL, QueryRequest{
			SQL: "SELECT AVG(v) FROM slow WITH PRECISION 0.5 SEED 1",
		})
		done <- resp.StatusCode
	}()
	<-started // the first query holds the only admission slot

	resp, body := postQuery(t, ts.URL, QueryRequest{
		SQL: "SELECT AVG(v) FROM slow WITH PRECISION 0.5 SEED 2",
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d want 503 (%s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if code := <-done; code != http.StatusOK {
		t.Fatalf("first query status %d", code)
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/stats", &st)
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d", st.Rejected)
	}
}

func TestStatsCountersMove(t *testing.T) {
	ts, _, _ := newTestServer(t, Config{})

	var before StatsResponse
	getJSON(t, ts.URL+"/stats", &before)

	const sql = "SELECT AVG(v) FROM sales WITH PRECISION 0.5 SEED 11"
	for i := 0; i < 3; i++ {
		resp, body := postQuery(t, ts.URL, QueryRequest{SQL: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}

	var after StatsResponse
	getJSON(t, ts.URL+"/stats", &after)
	if after.Served != before.Served+3 {
		t.Fatalf("served %d → %d, want +3", before.Served, after.Served)
	}
	tbl, ok := after.PerTable["sales"]
	if !ok || tbl.Queries != 3 || tbl.QPS10 <= 0 || tbl.QPS60 <= 0 {
		t.Fatalf("per-table stats: %+v", after.PerTable)
	}
	if tbl.P50MS <= 0 || tbl.P99MS < tbl.P50MS {
		t.Fatalf("per-table latency quantiles: %+v", tbl)
	}
	if after.QPS10 <= 0 || after.SamplesPerQuery <= 0 {
		t.Fatalf("global windowed stats: %+v", after)
	}
	if after.Cache == nil || after.Cache.HitRate <= 0.5 {
		t.Fatalf("cache hit rate: %+v", after.Cache)
	}
	if after.Cache == nil || after.Cache.Misses != 1 || after.Cache.Hits != 2 {
		t.Fatalf("cache stats: %+v", after.Cache)
	}
	if after.UptimeSeconds <= 0 {
		t.Fatal("no uptime")
	}
}

// The server must serve many concurrent mixed queries without racing —
// exercised under -race in CI.
func TestConcurrentServing(t *testing.T) {
	ts, eng, truth := newTestServer(t, Config{MaxInFlight: -1})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sql := fmt.Sprintf("SELECT AVG(v) FROM sales WITH PRECISION 0.5 SEED %d", g%4+1)
			resp, body := postQuery(t, ts.URL, QueryRequest{SQL: sql})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("goroutine %d: status %d (%s)", g, resp.StatusCode, body)
				return
			}
			var qr QueryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Error(err)
				return
			}
			if math.Abs(qr.Value-truth) > 1.5 {
				t.Errorf("goroutine %d: value %v", g, qr.Value)
			}
		}(g)
	}
	wg.Wait()
	if st := eng.Stats(); st.Served != 16 {
		t.Fatalf("served = %d", st.Served)
	}
}
