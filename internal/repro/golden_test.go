package repro

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all_100k.golden from the current output")

// timing matches a measured wall-clock cell, the second cell of a row, and
// the padding after it: the only part of the output that varies from run to
// run. The paper's own figures, which a claim line quotes, stay in.
var timing = regexp.MustCompile(`(?m)^(\S+ +)\d+ms +`)

// TestAllGolden pins islarepro's whole output at CI's smoke flags (`-exp all
// -n 100000 -runs 1`): every experiment, in list order, as the command prints
// it, with the timing cells masked. A change that moves a reproduced number
// fails here, and a failure first names every claim line that changed and
// whether its verdict flipped;
// run `go test ./internal/repro -run TestAllGolden -update` to accept one on
// purpose.
func TestAllGolden(t *testing.T) {
	o := Options{N: 100_000, Blocks: 10, Seed: 1, Runs: 1}
	var b strings.Builder
	for _, e := range Experiments {
		tab, err := e.Run(o)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		b.WriteString(tab.String())
		b.WriteByte('\n')
	}
	got := timing.ReplaceAllString(b.String(), "${1}_ms ")
	const path = "testdata/all_100k.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	var claims strings.Builder
	gc, wc := claimLines(gl), claimLines(wl)
	for i := range min(len(gc), len(wc)) {
		if gc[i] == wc[i] {
			continue
		}
		how := "moved"
		if verdict(gc[i]) != verdict(wc[i]) {
			how = "flipped"
		}
		fmt.Fprintf(&claims, "claim %s:\n got  %s\n want %s\n", how, gc[i], wc[i])
	}
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%soutput differs from %s at line %d:\n got  %q\n want %q", &claims, path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%soutput has %d lines, %s has %d", &claims, len(gl), path, len(wl))
}

// claimLines keeps the claim lines of an output, in order.
func claimLines(lines []string) []string {
	var out []string
	for _, l := range lines {
		if strings.HasPrefix(l, "claim: ") {
			out = append(out, l)
		}
	}
	return out
}

// verdict is the first word of a claim line's verdict: "holds", "misses" or
// "not" (checked).
func verdict(line string) string {
	return strings.Fields(line[strings.LastIndex(line, ": ")+2:])[0]
}
