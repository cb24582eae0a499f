package repro

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all_100k.golden from the current output")

// timing matches a wall-clock cell and the padding after it, the only part
// of the output that varies from run to run.
var timing = regexp.MustCompile(`\d+ms *`)

// TestAllGolden pins islarepro's whole output at CI's smoke flags (`-exp all
// -n 100000 -runs 1`): every experiment, in list order, as the command prints
// it, with the timing cells masked. A change that moves a reproduced number
// fails here; run `go test ./internal/repro -run TestAllGolden -update` to
// accept one on purpose.
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
	got := timing.ReplaceAllString(b.String(), "_ms ")
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
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got  %q\n want %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
	}
}
