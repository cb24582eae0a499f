package workload

import "testing"

func TestGroupFromSpec(t *testing.T) {
	name, g, err := GroupFromSpec("sales=region;east:normal:mu=100,sigma=20,n=5000,blocks=4;west:exp:gamma=0.5,n=3000,blocks=2")
	if err != nil {
		t.Fatal(err)
	}
	if name != "sales" || g.Column() != "region" {
		t.Fatalf("name=%q column=%q", name, g.Column())
	}
	keys := g.Groups()
	if len(keys) != 2 || keys[0] != "east" || keys[1] != "west" {
		t.Fatalf("keys = %v", keys)
	}
	if g.Combined().TotalLen() != 8000 {
		t.Fatalf("total = %d", g.Combined().TotalLen())
	}
	for _, bad := range []string{
		"noeq",
		"t=colonly",
		"t=c;keyonly",
		"t=c;a:normal:n=10;a:normal:n=10",
		"t=c;a:nosuchdist:n=10",
	} {
		if _, _, err := GroupFromSpec(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestGroupFromSpecNumbersBlocksTableWide: whatever order the spec lists its
// groups in, the table's blocks carry table-wide IDs in sorted-key order and
// each group's view holds the table's own blocks.
func TestGroupFromSpecNumbersBlocksTableWide(t *testing.T) {
	_, g, err := GroupFromSpec("t=c;west:normal:n=300,blocks=2;east:uniform:n=500,blocks=3")
	if err != nil {
		t.Fatal(err)
	}
	c := g.Combined()
	for i, b := range c.Blocks() {
		if b.ID() != i {
			t.Fatalf("table block %d has id %d", i, b.ID())
		}
	}
	next := 0
	for _, k := range g.Groups() {
		s, _ := g.Group(k)
		for _, b := range s.Blocks() {
			if b != c.Block(next) {
				t.Fatalf("group %q block %d is not the table's block %d", k, b.ID(), next)
			}
			next++
		}
	}
	if east, _ := g.Group("east"); east.NumBlocks() != 3 || east.TotalLen() != 500 {
		t.Fatalf("east: %d blocks, %d rows", east.NumBlocks(), east.TotalLen())
	}
}
