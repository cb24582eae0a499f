package workload

import (
	"strings"
	"testing"
)

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

// TestFromSpecRefusesBadSpecs: a key the distribution does not read, a value
// that is not finite, an n, blocks or seed that is not a whole number in
// range, more blocks than rows and out-of-domain parameters are refused, each
// with an error naming the distribution's keys, instead of building a table
// the spec did not ask for.
func TestFromSpecRefusesBadSpecs(t *testing.T) {
	for _, tc := range []struct{ spec, keys string }{
		{"t=normal:mean=5", "mu, sigma, n, blocks, seed"},      // built normal(100, 20)
		{"t=normal:gamma=0.5,n=100", "mu, sigma"},              // a key normal never reads
		{"t=uniform:mu=5,n=100", "lo, hi, n, blocks, seed"},    // likewise
		{"t=salary:sigma=5,n=100", "salary takes n, blocks"},   // likewise
		{"t=noniid:blocks=3,n=100", "noniid takes n, seed"},    // five fixed blocks
		{"t=normal:n=100,blocks=2.7", "mu, sigma"},             // truncated to 2
		{"t=normal:n=100.5", "mu, sigma"},                      // truncated to 100
		{"t=noniid:n=101", "noniid takes n, seed"},             // 20 rows a block, one lost
		{"t=normal:n=100,seed=-1", "mu, sigma"},                // an implementation-defined seed
		{"t=normal:n=100,seed=2.5", "mu, sigma"},               // truncated to 2
		{"t=normal:n=100,seed=1e20", "mu, sigma"},              // past uint64
		{"t=normal:sigma=-3,n=100", "mu, sigma"},               // a negative deviation
		{"t=normal:mu=NaN,n=100", "mu, sigma"},                 // a NaN table
		{"t=normal:sigma=Inf,n=100", "mu, sigma"},              // an infinite deviation
		{"t=exp:gamma=-1,n=100", "exp takes gamma"},            // mean -1
		{"t=exp:gamma=0,n=100", "exp takes gamma"},             // mean +Inf
		{"t=uniform:lo=5,hi=1,n=100", "uniform takes lo, hi"},  // lo above hi
		{"t=normal:n=100,blocks=1000", "mu, sigma"},            // 900 empty blocks
		{"t=exponential:n=10,blocks=11", "exp takes gamma, n"}, // one empty block
	} {
		_, s, _, err := FromSpec(tc.spec)
		if err == nil {
			t.Errorf("%s: built %d rows in %d blocks, want an error", tc.spec, s.TotalLen(), s.NumBlocks())
			continue
		}
		if !strings.Contains(err.Error(), tc.keys) {
			t.Errorf("%s: %v; want it to name the keys (%q)", tc.spec, err, tc.keys)
		}
	}
	for _, good := range []string{"t=normal:mu=-5,sigma=0,n=3,blocks=3,seed=0", "t=uniform:lo=2,hi=2,n=10",
		"t=noniid:n=100,seed=7", "t=exponential:gamma=2,n=10,blocks=10", "t=:n=10", "t=normal:n=1e3,seed=18446744073709549568"} {
		if _, _, _, err := FromSpec(good); err != nil {
			t.Errorf("%s: %v", good, err)
		}
	}
}
