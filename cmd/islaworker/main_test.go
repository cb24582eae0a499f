package main

import (
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
