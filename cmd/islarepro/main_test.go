package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRejectsSizesBelowOne: -n, -blocks and -runs below 1 exit with status 2
// and a message naming the flag, before any experiment runs.
func TestRejectsSizesBelowOne(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"n", "0"}, {"blocks", "0"}, {"runs", "0"}, {"runs", "-1"}, {"n", "-5"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-exp", "table3", "-" + tc.flag, tc.value}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("-%s %s: exit %d, want 2", tc.flag, tc.value, code)
		}
		if !strings.Contains(stderr.String(), "-"+tc.flag+" ") {
			t.Errorf("-%s %s: stderr %q does not name the flag", tc.flag, tc.value, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-%s %s: printed %q", tc.flag, tc.value, stdout.String())
		}
	}
}

// TestUnknownExperiment: an unknown id makes the exit status 1, and the
// other requested tables still print.
func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "nosuch,table3", "-n", "100000"}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "nosuch"`) {
		t.Errorf("stderr %q does not name the unknown id", stderr.String())
	}
	if !strings.Contains(stdout.String(), "(table3) ==") {
		t.Errorf("table3 not printed:\n%s", stdout.String())
	}
}

// TestOneExperiment: a known id prints its one table and exits 0.
func TestOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "table3", "-n", "100000"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr %q", code, stderr.String())
	}
	if out := stdout.String(); strings.Count(out, ") ==\n") != 1 || !strings.Contains(out, "(table3) ==\n") {
		t.Errorf("want table3 alone, got:\n%s", stdout.String())
	}
}
