package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations uniform over (0, 100ms]: quantiles must land
	// within one log-bucket (~±20%) of the true values.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * 100 * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	cases := []struct{ q, want float64 }{
		{0.5, 0.050}, {0.95, 0.095}, {0.99, 0.099},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if got < c.want/1.5 || got > c.want*1.5 {
			t.Errorf("p%g = %v, want ≈ %v", 100*c.q, got, c.want)
		}
	}
	wantSum := 0.0001 * 1000 * 1001 / 2
	if s := h.SumSeconds(); math.Abs(s-wantSum) > 1e-6 {
		t.Errorf("sum = %v, want %v", s, wantSum)
	}
}

func TestHistogramEdges(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram must report 0")
	}
	h.Observe(-time.Second) // clamped, not panicking
	h.Observe(0)
	h.Observe(time.Hour) // overflow bucket
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	// The overflow quantile saturates at the largest finite bound.
	if q := h.Quantile(1); q < 10 {
		t.Errorf("overflow quantile = %v, want the top bound (~74s)", q)
	}
}

func TestHistogramMonotoneBuckets(t *testing.T) {
	var h Histogram
	for i := 0; i < 500; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	bounds, cum, total := h.Snapshot()
	if len(bounds) != len(cum) {
		t.Fatal("bounds/cumulative length mismatch")
	}
	last := int64(0)
	for i, c := range cum {
		if c < last {
			t.Fatalf("cumulative count decreases at bucket %d", i)
		}
		last = c
	}
	if total != 500 || cum[len(cum)-1] > total {
		t.Fatalf("total = %d, last cum = %d", total, cum[len(cum)-1])
	}
}

func TestRateWindow(t *testing.T) {
	var w RateWindow
	now := int64(1_000_000)
	// 30 events in the last 10 seconds, 60 more in the 50 before that.
	for s := now - 59; s <= now-10; s++ {
		w.Add(s)
		if s%5 == 0 {
			w.Add(s)
		}
	}
	for s := now - 9; s <= now; s++ {
		w.Add(s)
		w.Add(s)
		w.Add(s)
	}
	if r := w.Rate(now, 10); r != 3.0 {
		t.Errorf("10s rate = %v, want 3", r)
	}
	r60 := w.Rate(now, 60)
	if r60 < 1.4 || r60 > 1.7 {
		t.Errorf("60s rate = %v, want ~1.5", r60)
	}
	// Far in the future everything has aged out.
	if r := w.Rate(now+120, 10); r != 0 {
		t.Errorf("aged rate = %v, want 0", r)
	}
}

func TestRegistryObserveAndTotals(t *testing.T) {
	r := NewRegistry()
	r.Observe("sales", ClassPoint, 10*time.Millisecond, 100, false, true)
	r.Observe("sales", ClassTimebound, 20*time.Millisecond, 50, true, false)
	r.Observe("ads", ClassFiltered, 5*time.Millisecond, 30, false, false)

	q, s, tr := r.Totals()
	if q != 3 || s != 180 || tr != 1 {
		t.Fatalf("totals = %d/%d/%d", q, s, tr)
	}
	tq, ts, ttr := r.Table("sales").Totals()
	if tq != 2 || ts != 150 || ttr != 1 {
		t.Fatalf("sales totals = %d/%d/%d", tq, ts, ttr)
	}
	if f := r.Table("sales").Class(ClassPoint).Fallback.Load(); f != 1 || r.Table("sales").Class(ClassTimebound).Fallback.Load() != 0 {
		t.Fatalf("sales fallbacks: point %d, want 1, and none in timebound", f)
	}
	if got := r.Tables(); len(got) != 2 || got[0] != "ads" || got[1] != "sales" {
		t.Fatalf("tables = %v", got)
	}
	if r.QPS(10*time.Second) <= 0 {
		t.Error("windowed QPS must include just-recorded queries")
	}
	if r.TableQPS("sales", 10*time.Second) <= 0 {
		t.Error("per-table windowed QPS must include just-recorded queries")
	}
	if r.TableQPS("nope", 10*time.Second) != 0 {
		t.Error("unknown table must report 0 QPS")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Observe("sales", ClassPoint, 3*time.Millisecond, 42, false, true)
	r.Observe("sales", ClassTimebound, 40*time.Millisecond, 10, true, false)
	var b bytes.Buffer
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE isla_query_duration_seconds histogram",
		`isla_query_duration_seconds_bucket{table="sales",class="point",le="+Inf"} 1`,
		`isla_query_duration_seconds_count{table="sales",class="point"} 1`,
		`isla_query_latency_seconds{table="sales",class="point",quantile="0.5"}`,
		`isla_query_latency_seconds{table="sales",class="timebound",quantile="0.99"}`,
		`isla_queries_total{table="sales",class="point"} 1`,
		`isla_query_samples_total{table="sales",class="point"} 42`,
		`isla_queries_truncated_total{table="sales",class="timebound"} 1`,
		`isla_queries_fallback_total{table="sales",class="point"} 1`,
		`isla_queries_fallback_total{table="sales",class="timebound"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Classes with no traffic must not emit series.
	if strings.Contains(out, `class="grouped"`) {
		t.Error("idle class leaked into the exposition")
	}
}

// The record path must be safe (and cheap) under concurrent writers —
// exercised under -race in CI.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Observe("t", Class(i%int(NumClasses)), time.Duration(i)*time.Microsecond, 1, i%10 == 0, i%10 == 1)
			}
		}(g)
	}
	wg.Wait()
	q, s, _ := r.Totals()
	if q != 8000 || s != 8000 {
		t.Fatalf("totals = %d/%d, want 8000/8000", q, s)
	}
}

func TestClassString(t *testing.T) {
	want := []string{"point", "filtered", "grouped", "timebound"}
	for i, c := range Classes() {
		if c.String() != want[i] {
			t.Errorf("class %d = %q", i, c.String())
		}
	}
}
