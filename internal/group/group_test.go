package group

import (
	"os"
	"path/filepath"
	"testing"

	"isla/internal/block"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, 5); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := Build([]Row{{"a", 1}}, 0); err == nil {
		t.Error("zero blocks accepted")
	}
}

func TestBuildSmallGroupFewerBlocks(t *testing.T) {
	g, err := Build([]Row{{"a", 1}, {"a", 2}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := g.Group("a")
	if s.NumBlocks() != 2 {
		t.Fatalf("tiny group has %d blocks, want 2", s.NumBlocks())
	}
}

func TestBuildClampsBlocksToRows(t *testing.T) {
	g, err := Build([]Row{{"a", 1}, {"a", 2}, {"b", 9}}, 64)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Group("a")
	b, _ := g.Group("b")
	if a.NumBlocks() != 2 || b.NumBlocks() != 1 {
		t.Fatalf("blocks: a=%d b=%d", a.NumBlocks(), b.NumBlocks())
	}
	for _, s := range []*block.Store{a, b} {
		for _, blk := range s.Blocks() {
			if blk.Len() == 0 {
				t.Fatal("clamped build produced an empty block")
			}
		}
	}
}

func TestOpenManifestErrors(t *testing.T) {
	if _, err := OpenManifest(filepath.Join(t.TempDir(), "nope.json"), block.ModeAuto); err == nil {
		t.Error("missing manifest accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "manifest.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := OpenManifest(bad, block.ModeAuto); err == nil {
		t.Error("corrupt manifest accepted")
	}
	os.WriteFile(bad, []byte(`{"version":9,"groups":[]}`), 0o644)
	if _, err := OpenManifest(bad, block.ModeAuto); err == nil {
		t.Error("future manifest version accepted")
	}
	os.WriteFile(bad, []byte(`{"version":1,"groups":[{"key":"a","files":["missing.000"]}]}`), 0o644)
	if _, err := OpenManifest(bad, block.ModeAuto); err == nil {
		t.Error("manifest with missing block file accepted")
	}
}

// TestCombinedStore: the combined view aggregates every row once, carries
// renumbered block IDs, delegates persisted summaries, and closing it does
// not close the shared group blocks.
func TestCombinedStore(t *testing.T) {
	rows := []Row{{"a", 1}, {"a", 2}, {"b", 3}, {"b", 4}, {"c", 5}}
	g, err := Build(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := g.Combined()
	if c.TotalLen() != 5 {
		t.Fatalf("combined len = %d", c.TotalLen())
	}
	mean, err := c.ExactMean()
	if err != nil {
		t.Fatal(err)
	}
	if mean != 3 {
		t.Fatalf("combined mean = %v", mean)
	}
	for i, b := range c.Blocks() {
		if b.ID() != i {
			t.Fatalf("block %d has ID %d", i, b.ID())
		}
	}

	// File-backed: summaries must survive the combined view, and Close on
	// the group store must be the one that releases the blocks.
	dir := t.TempDir()
	man, err := WriteFiles(dir, "g", rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	fg, err := OpenManifest(man, block.ModePread)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fg.Combined().Summary(); !ok {
		t.Error("combined view lost the persisted summaries")
	}
	if err := fg.Combined().Close(); err != nil {
		t.Fatal(err)
	}
	// Blocks are still usable: Close on the combined view was a no-op.
	if _, err := fg.Combined().ExactMean(); err != nil {
		t.Errorf("combined blocks closed by combined Close: %v", err)
	}
	if err := fg.Close(); err != nil {
		t.Fatal(err)
	}
}
