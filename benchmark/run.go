package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Fixed parts of every run.
const (
	// setupReps is how many times an end-to-end run sets the system up;
	// setup_s is their median, as the driver's contract asks. The first
	// instance serves the timed window; the others come after the window and
	// after peak_rss_mb is read, so they touch no other metric.
	setupReps = 7
	// spinDur is the length of the arithmetic spin taken before and after
	// the timed window.
	spinDur = 250 * time.Millisecond
	// minBeyond is how many samples must lie beyond a reported percentile.
	minBeyond = 10
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a single-workload run prints: the contract
// the acceptance driver reads.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is the sidecar written next to the traces: the result plus
// what the one-line contract has no room for.
type runDetail struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Seconds  int       `json:"seconds"`
	Traced   bool      `json:"traced"`
	Env      envStamp  `json:"env"`
	Noisy    bool      `json:"noisy"`
	OK       int64     `json:"ok"`
	Samples  int       `json:"latency_samples"`
	Result   runResult `json:"result"`
}

// runOptions parameterizes one workload run.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	shrink   int    // divides row counts; 1 outside tests
	outDir   string // traces, sidecars and scratch block files
	log      io.Writer
}

// prepared is a workload with its data generated, the system set up and
// the verification set computed: everything both run kinds start from.
type prepared struct {
	w         workload
	m         *mix
	sys       *system
	oracle    *oracle
	vs        *verificationSet
	warm      []*stmt // the warm-up list every set-up runs
	datagenS  float64
	setupS    []float64
	cleanData func()
}

func (p *prepared) close() {
	if p.sys != nil {
		p.sys.close()
	}
	if p.cleanData != nil {
		p.cleanData()
	}
}

// setUp brings one instance of the system up the way an operator would
// before taking traffic, warm-up statements included, and reports how long
// that took.
func setUp(ctx context.Context, w workload, warm []*stmt, traced bool) (*system, float64, error) {
	start := time.Now()
	sys, err := w.setup(traced)
	if err != nil {
		return nil, 0, err
	}
	for _, s := range warm {
		if _, err := sys.ask(ctx, s); err != nil {
			sys.close()
			return nil, 0, fmt.Errorf("warm-up: %s: %w", s.SQL, err)
		}
	}
	return sys, time.Since(start).Seconds(), nil
}

func prepare(ctx context.Context, o runOptions) (*prepared, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w}
	dir, clean, err := scratchDir(o.outDir)
	if err != nil {
		return nil, err
	}
	p.cleanData = clean
	start := time.Now()
	if err := w.datagen(o.seed, o.shrink, dir); err != nil {
		p.close()
		return nil, fmt.Errorf("datagen: %w", err)
	}
	p.datagenS = time.Since(start).Seconds()

	p.m = w.mix()
	warm, err := warmupList(p.m.hot)
	if err != nil {
		p.close()
		return nil, err
	}
	p.warm = warm
	sys, secs, err := setUp(ctx, w, warm, o.traced)
	if err != nil {
		p.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p.sys, p.setupS = sys, []float64{secs}

	p.oracle = newOracle(p.sys.local)
	p.vs, err = p.oracle.verifyAll(ctx, p.m)
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// repeatSetUp closes the instance the window used and sets the system up
// again until setupS holds setupReps times. Nothing may use the system or
// the oracle afterwards.
func (p *prepared) repeatSetUp(ctx context.Context) error {
	p.sys.close()
	p.sys = nil
	for len(p.setupS) < setupReps {
		runtime.GC() // each instance starts from a collected heap, like the first
		sys, secs, err := setUp(ctx, p.w, p.warm, false)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		sys.close()
		p.setupS = append(p.setupS, secs)
	}
	return nil
}

// runWorkload is one process's work: one workload, one seed, either the
// end-to-end pass (tracing off) or the traced pass.
func runWorkload(ctx context.Context, o runOptions) (runDetail, error) {
	det := runDetail{Workload: o.workload, Seed: o.seed, Seconds: int(o.seconds), Traced: o.traced, Env: stampEnv(o.seed)}
	p, err := prepare(ctx, o)
	if err != nil {
		return det, err
	}
	defer p.close()
	if o.traced {
		return runTraced(ctx, o, p, det)
	}
	return runEndToEnd(ctx, o, p, det)
}

// runEndToEnd is the gated pass: the workload's own load for the whole
// window with tracing off, every reply checked. It reports what repeats —
// set-up time, the verification set's counts, memory under load — and
// fails on a wrong answer; the window's timings are the traced pass's
// load.* metrics (names.go says why).
func runEndToEnd(ctx context.Context, o runOptions, p *prepared, det runDetail) (runDetail, error) {
	runtime.GC() // start the window from a collected heap, like every other run
	spin0 := spinScore(spinDur)
	window := time.Duration(o.seconds * float64(time.Second))
	res := runLoad(ctx, p.w, p.sys, p.m, p.vs.known, o.seed, window)
	drift := spinDrift(spin0, spinScore(spinDur))
	if err := checkCold(ctx, p.oracle, res); err != nil {
		return det, err
	}

	if res.ok == 0 {
		return det, fmt.Errorf("no statement answered correctly (first error: %v)", res.firstErr)
	}
	rss := peakRSSMB() // before the extra set-ups: one instance's peak, not the harness's
	if err := p.repeatSetUp(ctx); err != nil {
		return det, err
	}
	put := func(name string, v float64) {
		det.Result.Metrics[name] = metricValue{Value: v, Unit: unitOf(endToEnd, name)}
	}
	det.Result.Metrics = make(map[string]metricValue, len(endToEnd))
	put("setup_s", median(p.setupS))
	put("samples_per_query", p.vs.samplesPerQuery)
	put("ci_coverage", p.vs.ciCoverage)
	put("peak_rss_mb", rss)
	det.Result.Attempted, det.Result.Failed = res.attempted, res.failed
	det.Result.Correct = res.failed == 0
	det.OK, det.Samples = res.ok, len(res.latencies)
	det.Noisy = drift > noisyDrift

	fmt.Fprintf(o.log, "workload %s  seed %d  window %.1fs  tracing off\n", o.workload, o.seed, res.window.Seconds())
	fmt.Fprintf(o.log, "  attempted %d  ok %d  failed %d  (fail_ratio %.6f)\n", res.attempted, res.ok, res.failed, float64(res.failed)/float64(res.attempted))
	if res.firstErr != nil {
		fmt.Fprintf(o.log, "  first failure: %v\n", res.firstErr)
	}
	fmt.Fprintf(o.log, "  datagen %.3fs; set-ups %.3v s\n", p.datagenS, p.setupS)
	p.vs.print(o.log)
	fmt.Fprintf(o.log, "  spin score %.4g iterations/s, drift over the window %.3f%s\n", spin0, drift, map[bool]string{true: "  ** noisy **", false: ""}[det.Noisy])
	for _, d := range endToEnd {
		fmt.Fprintf(o.log, "  %-22s %14.6f %s\n", d.Name, det.Result.Metrics[d.Name].Value, d.Unit)
	}
	return det, nil
}

// writeDetail stores the sidecar for the suite driver and for people.
func writeDetail(outDir string, det runDetail) error {
	kind := "e2e"
	if det.Traced {
		kind = "layers"
	}
	b, err := json.MarshalIndent(det, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s.%s.json", det.Workload, kind)), append(b, '\n'), 0o644)
}
