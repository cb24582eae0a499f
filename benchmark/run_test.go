package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// testOptions shrinks a workload to a fiftieth of its rows and a half
// second window: enough to drive every code path, far too little to time.
func testOptions(t *testing.T, workload string, traced bool) runOptions {
	return runOptions{workload: workload, seed: 3, seconds: 0.5, traced: traced, shrink: 50, outDir: t.TempDir(), log: io.Discard}
}

func metricNames(defs []metricDef) map[string]string {
	out := make(map[string]string, len(defs))
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

func checkMetrics(t *testing.T, got map[string]metricValue, defs []metricDef) {
	t.Helper()
	want := metricNames(defs)
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, %d declared", len(got), len(want))
	}
	for name, unit := range want {
		mv, ok := got[name]
		if !ok {
			t.Errorf("metric %s not reported", name)
		} else if mv.Unit != unit {
			t.Errorf("metric %s reported in %q, declared in %q", name, mv.Unit, unit)
		}
	}
}

// Every workload's end-to-end pass answers correctly and reports exactly
// the declared end-to-end metrics, none of them zero.
func TestEndToEndPassReportsDeclaredMetrics(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			det, err := runWorkload(context.Background(), testOptions(t, w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !det.Result.Correct || det.Result.Failed != 0 || det.Result.Attempted < 1 || exitCode(det.Result) != 0 {
				t.Errorf("result = %+v", det.Result)
			}
			checkMetrics(t, det.Result.Metrics, endToEnd)
			for name, mv := range det.Result.Metrics {
				if mv.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; end-to-end metrics are never zero", name, mv.Value)
				}
			}
			line, err := json.Marshal(det.Result)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("result line must have exactly correct/attempted/failed/metrics: %s", line)
			}
		})
	}
}

// Every workload's traced pass replays bit-identically, reports exactly the
// declared per-layer metrics and writes its trace file.
func TestTracedPassReportsDeclaredMetrics(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			o := testOptions(t, w.Name, true)
			det, err := runWorkload(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if !det.Result.Correct || det.Result.Failed != 0 {
				t.Errorf("result = correct %v, failed %d of %d", det.Result.Correct, det.Result.Failed, det.Result.Attempted)
			}
			checkMetrics(t, det.Result.Metrics, perLayer)
			raw, err := os.ReadFile(filepath.Join(o.outDir, w.Name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			roots := 0
			for _, s := range tf.Spans {
				if s.Name == "replay" {
					roots++
					if s.Parent != 0 || s.QueryID == 0 {
						t.Errorf("replay span %+v must be a root with a query id", s)
					}
				}
			}
			if roots == 0 {
				t.Error("trace file holds no replayed statement")
			}
			if entries, _ := os.ReadDir(o.outDir); len(entries) != 1 {
				t.Errorf("the run left %d entries in its directory, want only the trace file", len(entries))
			}
		})
	}
}

// A wrong answer fails the run: corrupt one expected value by one bit's
// worth and the pass reports failures and a non-zero exit code.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	o := testOptions(t, "shard_scatter", false)
	p, err := prepare(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	for _, v := range p.vs.known {
		v.want.Value += 1e-9
	}
	det, err := runEndToEnd(context.Background(), o, p, runDetail{})
	if err != nil {
		t.Fatal(err)
	}
	if det.Result.Correct || det.Result.Failed == 0 || exitCode(det.Result) == 0 {
		t.Errorf("corrupted expectations must fail the run: %+v, exit %d", det.Result, exitCode(det.Result))
	}
}

// The same seed gives the same inputs: the counts that depend only on data
// and statements repeat exactly, and another seed moves them.
func TestSeedFixesTheInputs(t *testing.T) {
	verify := func(seed uint64) *verificationSet {
		o := testOptions(t, "filtered_mmap", false)
		o.seed = seed
		p, err := prepare(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		defer p.close()
		return p.vs
	}
	a, b, c := verify(5), verify(5), verify(6)
	if a.samplesPerQuery != b.samplesPerQuery || a.ciCoverage != b.ciCoverage {
		t.Errorf("seed 5 twice: samples %v vs %v, coverage %v vs %v", a.samplesPerQuery, b.samplesPerQuery, a.ciCoverage, b.ciCoverage)
	}
	if a.samplesPerQuery == c.samplesPerQuery {
		t.Errorf("seeds 5 and 6 drew exactly %v samples per query: the seed does not reach the data", a.samplesPerQuery)
	}
}
