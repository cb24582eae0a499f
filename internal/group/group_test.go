package group

import (
	"os"
	"path/filepath"
	"testing"

	"isla/internal/block"
)

func TestBuildValidation(t *testing.T) {
	if _, err := BuildColumn("", nil, 5); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := BuildColumn("", []Row{{"a", 1}}, 0); err == nil {
		t.Error("zero blocks accepted")
	}
}

func TestBuildSmallGroupFewerBlocks(t *testing.T) {
	g, err := BuildColumn("", []Row{{"a", 1}, {"a", 2}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := g.Group("a")
	if s.NumBlocks() != 2 {
		t.Fatalf("tiny group has %d blocks, want 2", s.NumBlocks())
	}
}

func TestBuildClampsBlocksToRows(t *testing.T) {
	g, err := BuildColumn("", []Row{{"a", 1}, {"a", 2}, {"b", 9}}, 64)
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

// TestCombinedStore: the combined store aggregates every row once, its block
// IDs are table-wide positions, persisted summaries survive, and it owns the
// blocks — closing a group's view releases nothing, closing the combined
// store releases them all.
func TestCombinedStore(t *testing.T) {
	rows := []Row{{"a", 1}, {"a", 2}, {"b", 3}, {"b", 4}, {"c", 5}}
	g, err := BuildColumn("", rows, 2)
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

	// File-backed: summaries must survive, a group view's Close must leave
	// the blocks open, and the combined store's Close must release them.
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
		t.Error("combined store lost the persisted summaries")
	}
	b, _ := fg.Group("b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fg.Combined().Block(2).Scan(func(float64) error { return nil }); err != nil {
		t.Errorf("group view's Close closed the table's block: %v", err)
	}
	if err := fg.Combined().Close(); err != nil {
		t.Fatal(err)
	}
	for i, blk := range fg.Combined().Blocks() {
		if err := blk.Scan(func(float64) error { return nil }); err == nil {
			t.Errorf("block %d still readable after the combined store's Close", i)
		}
	}
	if err := fg.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestNewStoreWantsTableWideIDs: per-group stores numbered group by group
// are refused; numbered table-wide in sorted-key order they are taken as-is.
func TestNewStoreWantsTableWideIDs(t *testing.T) {
	local := map[string]*block.Store{
		"b": block.Partition([]float64{3, 4}, 2),
		"a": block.Partition([]float64{1, 2}, 2),
	}
	if _, err := NewStore("", local); err == nil {
		t.Fatal("group-local block ids accepted")
	}
	wide := map[string]*block.Store{
		"b": block.NewStore(block.NewMemBlock(2, []float64{3}), block.NewMemBlock(3, []float64{4})),
		"a": block.NewStore(block.NewMemBlock(0, []float64{1}), block.NewMemBlock(1, []float64{2})),
	}
	g, err := NewStore("", wide)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := g.Group("b")
	if b.Block(0) != wide["b"].Block(0) || g.Combined().Block(3) != wide["b"].Block(1) {
		t.Fatal("NewStore did not keep the groups' blocks in sorted-key order")
	}
}
