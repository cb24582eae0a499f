package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100) // 1..100: the p-th percentile is p
	for _, p := range []float64{1, 50, 95, 99, 100} {
		if got := percentile(xs, p); got != p {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, p)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("single-sample percentile = %v, want 7", got)
	}
	if got := percentile(seq(10), 95); got != 10 {
		t.Errorf("percentile(1..10, 95) = %v, want 10", got)
	}
	if got := percentile(seq(10), 50); got != 5 {
		t.Errorf("percentile(1..10, 50) = %v, want 5", got)
	}
}

func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{100, 95, 5}, {2000, 95, 100}, {6000, 95, 300}, {1000, 99, 10}, {999, 99, 9}, {10, 95, 0}, {1, 50, 0},
	} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// A percentile is reported only with ten samples beyond it.
func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	cands := []float64{50, 90, 95, 99, 99.9}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n, 10, cands); got != c.want {
			t.Errorf("highestPercentile(n=%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4), which the
// acceptance driver computes spreads with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(3), 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2, 10, 4}, 1.5, 3, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower"}
	higher := metricDef{Name: "throughput_qps", Better: "higher"}
	tight := func(m float64) spread { return spread{Q1: m * 0.99, Median: m, Q3: m * 1.01, N: 3} }
	wide := func(m float64) spread { return spread{Q1: m * 0.9, Median: m, Q3: m * 1.1, N: 3} }
	exact := func(m float64) spread { return spread{Q1: m, Median: m, Q3: m, N: 3} }
	for _, c := range []struct {
		d        metricDef
		bound    float64
		absolute bool
		old, cur spread
		want     string
	}{
		{lower, 0.10, false, tight(10), tight(10.5), unchanged},
		{lower, 0.10, false, tight(10), tight(11.5), regressed},
		{lower, 0.10, false, tight(10), tight(9), improved},
		{lower, 0.10, false, tight(10), wide(10), unresolved},
		{higher, 0.10, false, tight(100), tight(85), regressed},
		{higher, 0.10, false, tight(100), tight(120), improved},
		{higher, 0.10, false, tight(100), tight(99), unchanged},
		// Exact-for-seed counts: bound 0, so any move is a verdict.
		{lower, 0, false, exact(2172), exact(2172), unchanged},
		{lower, 0, false, exact(2172), exact(2173), regressed},
		{lower, 0, false, exact(2172), exact(1955), improved},
		// Absolute bounds: 0.03 of coverage, nothing on a fail ratio of 0.
		{higher, 0.03, true, exact(0.95), exact(0.93), unchanged},
		{higher, 0.03, true, exact(0.95), exact(0.91), regressed},
		{higher, 0.03, true, exact(0.49), exact(0.45), regressed},
		{lower, 0, true, exact(0), exact(0), unchanged},
		{lower, 0, true, exact(0), exact(0.001), regressed},
	} {
		if got, _, _ := judge(c.d, c.bound, c.absolute, c.old, c.cur); got != c.want {
			t.Errorf("judge(%s, bound %v, %v -> %v) = %s, want %s", c.d.Name, c.bound, c.old.Median, c.cur.Median, got, c.want)
		}
	}
}

// -compare applies the issue's bounds — the speed-up that just draws less
// (a tenth fewer samples, coverage down 0.05) regresses twice — reports
// fail_ratio, and refuses documents of different seeds or windows.
func TestCompareDocs(t *testing.T) {
	doc := func(seed uint64, seconds, samples, coverage float64, failed int64) resultsDoc {
		d := resultsDoc{Env: envStamp{Seed: seed}, Seconds: seconds, Repeat: 3}
		for rep := 0; rep < 3; rep++ {
			for _, w := range workloadDefs {
				m := make(map[string]metricValue)
				for _, e := range endToEnd {
					m[e.Name] = metricValue{Value: 1, Unit: e.Unit}
				}
				m["samples_per_query"] = metricValue{Value: samples, Unit: "count"}
				m["ci_coverage"] = metricValue{Value: coverage, Unit: "ratio"}
				d.Runs = append(d.Runs, suiteRun{Workload: w.Name, Rep: rep, Result: runResult{Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: m}})
				layers := make(map[string]metricValue)
				for _, l := range perLayer {
					layers[l.Name] = metricValue{Value: 1, Unit: l.Unit}
				}
				d.Runs = append(d.Runs, suiteRun{Workload: w.Name, Traced: true, Rep: rep, Result: runResult{Correct: true, Attempted: 10, Metrics: layers}})
			}
		}
		d.Summary = summarize(d.Runs)
		return d
	}
	rows := func(out, verdict string) int { return strings.Count(out, "  "+verdict+"\n") }
	var out strings.Builder
	base := doc(1, 20, 2000, 0.95, 0)
	if code := compareDocs(&out, base, doc(1, 20, 2000, 0.95, 0)); code != 0 || rows(out.String(), unchanged) != len(workloadDefs)*len(reported()) {
		t.Errorf("identical documents: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareDocs(&out, base, doc(1, 20, 1800, 0.90, 0)); code != 1 || rows(out.String(), regressed) != len(workloadDefs) || rows(out.String(), improved) != len(workloadDefs) {
		t.Errorf("fewer samples for less coverage must regress ci_coverage on every workload: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareDocs(&out, base, doc(1, 20, 2000, 0.95, 1)); code != 1 || rows(out.String(), regressed) != len(workloadDefs) || !strings.Contains(out.String(), "fail_ratio") {
		t.Errorf("one failed statement in a thousand must regress fail_ratio: exit %d\n%s", code, out.String())
	}
	for _, other := range []resultsDoc{doc(2, 20, 2000, 0.95, 0), doc(1, 30, 2000, 0.95, 0)} {
		out.Reset()
		if code := compareDocs(&out, base, other); code != 2 || !strings.Contains(out.String(), "not comparable") {
			t.Errorf("seed %d, %gs windows against seed 1, 20s: exit %d\n%s", other.Env.Seed, other.Seconds, code, out.String())
		}
	}
}
