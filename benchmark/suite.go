package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// suiteOptions parameterizes a whole-suite run.
type suiteOptions struct {
	seed    uint64
	seconds float64
	repeat  int
	outDir  string
	outFile string
}

// suiteRun is one child process's outcome inside a results document.
type suiteRun struct {
	Workload string    `json:"workload"`
	Traced   bool      `json:"traced"`
	Rep      int       `json:"rep"`
	Noisy    bool      `json:"noisy"`
	Result   runResult `json:"result"`
}

// spread is one metric's distribution over a results document's repeats.
type spread struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// resultsDoc is what the suite writes and -compare reads.
type resultsDoc struct {
	Env     envStamp                     `json:"env"`
	Seconds float64                      `json:"seconds"`
	Repeat  int                          `json:"repeat"`
	Noisy   bool                         `json:"noisy"`
	Runs    []suiteRun                   `json:"runs"`
	Summary map[string]map[string]spread `json:"summary"` // workload -> metric -> spread
}

// runSuite runs every workload's end-to-end pass and traced pass, each in
// a fresh process of this same binary, o.repeat times, and prints and
// stores the medians and quartiles. It returns the process exit code.
func runSuite(ctx context.Context, o suiteOptions) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	doc := resultsDoc{Env: stampEnv(o.seed), Seconds: o.seconds, Repeat: o.repeat}
	if doc.Env.Commit == "unknown" {
		// go run does not stamp VCS information; ask git, if there is one.
		if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
			doc.Env.Commit = string(bytes.TrimSpace(out))
		}
	}
	code := 0
	for rep := 0; rep < o.repeat; rep++ {
		for _, w := range workloadDefs {
			for _, traced := range []bool{false, true} {
				run, err := runChild(ctx, self, w.Name, o, traced)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s (trace %v): %v\n", w.Name, traced, err)
					code = 1
					if ctx.Err() != nil {
						return code
					}
					continue
				}
				run.Rep = rep
				doc.Runs = append(doc.Runs, run)
				doc.Noisy = doc.Noisy || run.Noisy
				if !run.Result.Correct {
					code = 1
				}
			}
		}
	}
	doc.Summary = summarize(doc.Runs)
	printSummary(os.Stdout, doc)

	path := o.outFile
	if path == "" {
		path = filepath.Join(o.outDir, "results.json")
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("results written to %s\n", path)
	return code
}

// runChild runs one workload pass in a child process, relays what it
// prints, and parses its last line.
func runChild(ctx context.Context, self, workload string, o suiteOptions, traced bool) (suiteRun, error) {
	run := suiteRun{Workload: workload, Traced: traced}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	last := lines[len(lines)-1]
	os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n"))) //nolint:errcheck // relaying to our own stdout
	fmt.Println()
	if err := json.Unmarshal(last, &run.Result); err != nil || run.Result.Metrics == nil {
		if runErr != nil {
			return run, runErr
		}
		return run, fmt.Errorf("no result line (last line: %q)", last)
	}
	kind := "e2e"
	if traced {
		kind = "layers"
	}
	var det runDetail
	if b, err := os.ReadFile(filepath.Join(o.outDir, workload+"."+kind+".json")); err == nil && json.Unmarshal(b, &det) == nil {
		run.Noisy = det.Noisy
	}
	return run, nil // a wrong answer shows as Result.Correct == false
}

// summarize reduces the runs to per-workload, per-metric quartiles.
func summarize(runs []suiteRun) map[string]map[string]spread {
	values := make(map[string]map[string][]float64)
	units := make(map[string]string)
	for _, r := range runs {
		if values[r.Workload] == nil {
			values[r.Workload] = make(map[string][]float64)
		}
		for name, mv := range r.Result.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], mv.Value)
			units[name] = mv.Unit
		}
		if !r.Traced && r.Result.Attempted > 0 {
			values[r.Workload][failRatio.Name] = append(values[r.Workload][failRatio.Name], float64(r.Result.Failed)/float64(r.Result.Attempted))
			units[failRatio.Name] = failRatio.Unit
		}
	}
	out := make(map[string]map[string]spread, len(values))
	for w, ms := range values {
		out[w] = make(map[string]spread, len(ms))
		for name, xs := range ms {
			q1, q2, q3 := quartiles(xs)
			out[w][name] = spread{Unit: units[name], N: len(xs), Q1: q1, Median: q2, Q3: q3}
		}
	}
	return out
}

func printSummary(w io.Writer, doc resultsDoc) {
	noisy := ""
	if doc.Noisy {
		noisy = "  ** at least one run was flagged noisy **"
	}
	fmt.Fprintf(w, "\n==== suite summary: %d repeat(s), seed %d, %gs windows, commit %s, %s %s, %s x%d%s\n",
		doc.Repeat, doc.Env.Seed, doc.Seconds, doc.Env.Commit, doc.Env.GoVersion, doc.Env.GOARCH, doc.Env.CPUModel, doc.Env.NumCPU, noisy)
	for _, defs := range [][]metricDef{reported(), perLayer} {
		for _, wl := range workloadDefs {
			ms := doc.Summary[wl.Name]
			if ms == nil {
				continue
			}
			fmt.Fprintf(w, "-- %s\n", wl.Name)
			for _, d := range defs {
				sp, ok := ms[d.Name]
				if !ok {
					continue
				}
				fmt.Fprintf(w, "  %-34s %16.6f %-6s [q1 %.6f, q3 %.6f, n=%d]\n", d.Name, sp.Median, sp.Unit, sp.Q1, sp.Q3, sp.N)
			}
		}
	}
}

// verdicts of a comparison row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge applies a bound to one end-to-end metric's old and new spreads.
// worse is how far the new median moved in the bad direction and width the
// wider side's distance between the quartiles, both as a share of the old
// median — or, for an absolute bound, in the metric's own unit. A metric
// whose run-to-run width exceeds the bound is unresolved rather than
// unchanged.
func judge(d metricDef, bound float64, absolute bool, old, cur spread) (verdict string, worse, width float64) {
	worse = cur.Median - old.Median
	if d.Better == "higher" {
		worse = -worse
	}
	width = math.Max(old.Q3-old.Q1, cur.Q3-cur.Q1)
	if !absolute {
		if old.Median == 0 {
			return unresolved, 0, 0
		}
		worse /= math.Abs(old.Median)
		width /= math.Abs(old.Median)
	}
	switch {
	case width > bound:
		return unresolved, worse, width
	case worse > bound:
		return regressed, worse, width
	case -worse > width && -worse > 0:
		return improved, worse, width
	}
	return unchanged, worse, width
}

// compareFiles prints one row per workload x end-to-end metric and returns
// the exit code: non-zero when any row regressed.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	load := func(path string) (resultsDoc, error) {
		var doc resultsDoc
		b, err := os.ReadFile(path)
		if err != nil {
			return doc, err
		}
		return doc, json.Unmarshal(b, &doc)
	}
	old, err := load(oldPath)
	if err == nil {
		var cur resultsDoc
		if cur, err = load(newPath); err == nil {
			return compareDocs(w, old, cur)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// compareDocs judges cur against old by compareBound's bounds, which assume
// what -repeat gives: the same seed and window on both sides, so that the
// counts repeat exactly. Documents that differ in either are refused.
func compareDocs(w io.Writer, old, cur resultsDoc) int {
	fmt.Fprintf(w, "old: commit %s, %d repeat(s), seed %d, %gs windows%s\n", old.Env.Commit, old.Repeat, old.Env.Seed, old.Seconds, map[bool]string{true: ", noisy"}[old.Noisy])
	fmt.Fprintf(w, "new: commit %s, %d repeat(s), seed %d, %gs windows%s\n", cur.Env.Commit, cur.Repeat, cur.Env.Seed, cur.Seconds, map[bool]string{true: ", noisy"}[cur.Noisy])
	if old.Env.Seed != cur.Env.Seed || old.Seconds != cur.Seconds {
		fmt.Fprintln(w, "not comparable: the two documents differ in seed or window length")
		return 2
	}
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %10s %10s %8s  %s\n", "workload", "metric", "old median", "new median", "worse by", "spread", "bound", "verdict")
	code := 0
	for _, wl := range workloadDefs {
		for _, d := range reported() {
			o, okOld := old.Summary[wl.Name][d.Name]
			c, okNew := cur.Summary[wl.Name][d.Name]
			if !okOld || !okNew {
				fmt.Fprintf(w, "%-14s %-22s %14s %14s %10s %10s %8s  %s\n", wl.Name, d.Name, "-", "-", "-", "-", "-", "missing")
				code = 1
				continue
			}
			bound, absolute := compareBound(d.Name)
			verdict, worse, width := judge(d, bound, absolute, o, c)
			if verdict == regressed {
				code = 1
			}
			scale, sign := 100.0, "%" // shares print as percentages, absolute bounds in the unit
			if absolute {
				scale, sign = 1, " "
			}
			fmt.Fprintf(w, "%-14s %-22s %14.6f %14.6f %+9.3g%s %9.3g%s %7.3g%s  %s\n",
				wl.Name, d.Name, o.Median, c.Median, scale*worse, sign, scale*width, sign, scale*bound, sign, verdict)
		}
	}
	return code
}
