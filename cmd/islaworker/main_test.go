package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"isla/internal/block"
	"isla/internal/workload"
)

// TestGenBlocks: -gen parses through workload.FromSpec, keeps the worker's
// 4-block default and numbers the blocks from -base-id.
func TestGenBlocks(t *testing.T) {
	got, err := genBlocks("normal:n=1000,seed=3", 4)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := workload.Normal(100, 20, 1000, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want.NumBlocks() {
		t.Fatalf("%d blocks, want %d", len(got), want.NumBlocks())
	}
	for i, b := range got {
		if b.ID() != 4+i {
			t.Fatalf("block %d has id %d, want %d", i, b.ID(), 4+i)
		}
		g, w := b.(*block.MemBlock).Data(), want.Block(i).(*block.MemBlock).Data()
		if len(g) != len(w) {
			t.Fatalf("block %d holds %d values, want %d", i, len(g), len(w))
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("block %d value %d = %v, want %v", i, j, g[j], w[j])
			}
		}
	}
	if blocks, err := genBlocks("uniform:n=90,blocks=3", 0); err != nil || len(blocks) != 3 {
		t.Fatalf("blocks=3 override: %d blocks, %v", len(blocks), err)
	}
	for _, bad := range []string{"nosuch:n=10", "normal:n=x", "normal:n"} {
		if _, err := genBlocks(bad, 0); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestValidateManifest: -manifest refuses to serve when a block the manifest
// assigns to this worker is missing or has another length, with the
// coordinator's own admission errors, and passes a worker that holds every
// assigned block at its recorded length, extra blocks included.
func TestValidateManifest(t *testing.T) {
	blocks, err := genBlocks("normal:n=1000,seed=3", 0)
	if err != nil {
		t.Fatal(err)
	}
	const addr = "127.0.0.1:7070"
	dir := t.TempDir()
	for _, tc := range []struct {
		name, manifest, want string
	}{
		{"every block", `{"version":1,"shards":[{"addr":"127.0.0.1:7070","blocks":[0,1,2],"lens":[250,250,250]}]}`, ""},
		{"missing block", `{"version":1,"shards":[{"addr":"127.0.0.1:7070","blocks":[0,4],"lens":[250,250]}]}`,
			"does not serve block 4"},
		{"wrong length", `{"version":1,"shards":[{"addr":"127.0.0.1:7070","blocks":[0,1],"lens":[250,251]}]}`,
			"manifest mismatch for block 1"},
		{"other address", `{"version":1,"shards":[{"addr":"127.0.0.1:7071","blocks":[0],"lens":[250]}]}`,
			"not in shard manifest"},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".json")
		if err := os.WriteFile(path, []byte(tc.manifest), 0o644); err != nil {
			t.Fatal(err)
		}
		err := validateManifest(path, addr, blocks)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
