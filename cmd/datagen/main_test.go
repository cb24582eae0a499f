package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"isla/internal/block"
	"isla/internal/workload"
)

// TestWritesFromSpecBlocks: in every format, the files datagen writes reopen
// to the blocks workload.FromSpec generates for the same spec, and the two
// summary lines report them.
func TestWritesFromSpecBlocks(t *testing.T) {
	const spec = "uniform:lo=2,hi=9,n=1001,blocks=3,seed=4"
	_, want, truth, err := workload.FromSpec("gen=" + spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"v1", "v2", "v3"} {
		t.Run(format, func(t *testing.T) {
			prefix := filepath.Join(t.TempDir(), "col")
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-gen", spec, "-format", format, "-out", prefix}, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr.String())
			}
			for i, wb := range want.Blocks() {
				b, err := block.Open(i, fmt.Sprintf("%s.%03d", prefix, i), block.ModePread)
				if err != nil {
					t.Fatal(err)
				}
				defer block.NewStore(b).Close()
				var got []float64
				if err := b.Scan(func(v float64) error { got = append(got, v); return nil }); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, wb.(*block.MemBlock).Data()) {
					t.Fatalf("block %d reopens to %d values that differ from FromSpec's %d", i, len(got), wb.Len())
				}
			}
			if _, err := os.Stat(fmt.Sprintf("%s.%03d", prefix, want.NumBlocks())); !os.IsNotExist(err) {
				t.Fatalf("a block file past FromSpec's %d: %v", want.NumBlocks(), err)
			}
			head := fmt.Sprintf("wrote 1001 values (3 blocks, ISLB %s) to %s.*\ndistribution mean %.4f, empirical mean ", format, prefix, truth)
			if !strings.HasPrefix(stdout.String(), head) {
				t.Fatalf("printed %q, want it to start %q", stdout.String(), head)
			}
		})
	}
}

// TestUsageErrorsWriteNothing: a bad -format, a bad -gen and a missing -out
// exit with status 2 and leave no file behind.
func TestUsageErrorsWriteNothing(t *testing.T) {
	for _, args := range [][]string{
		{"-gen", "normal:n=100", "-format", "v4"},
		{"-gen", "nosuchdist:n=100"},
		{"-gen", "normal:n=0"},
		{"-gen", "normal:n=100", "-out", ""},
	} {
		dir := t.TempDir()
		if !slices.Contains(args, "-out") {
			args = append(args, "-out", filepath.Join(dir, "col"))
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stderr.Len() == 0 || stdout.Len() != 0 {
			t.Errorf("%v: stdout %q, stderr %q; want only an error", args, stdout.String(), stderr.String())
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("%v: wrote %d files", args, len(files))
		}
	}
}
