//go:build !race

package query

import (
	"fmt"
	"strings"
	"testing"
)

// TestParseAllocations: the lexer's tokens live in an array on parseRaw's
// stack, so a point statement parses without a heap allocation and a
// filtered one allocates only its Predicates slice. Race instrumentation
// allocates, hence the build tag.
func TestParseAllocations(t *testing.T) {
	for _, c := range []struct {
		sql  string
		want float64 // allocations per Parse
	}{
		{"SELECT AVG(v) FROM t WITH PRECISION 0.5 CONFIDENCE 0.9 SEED 1", 0},
		{"select sum(v) from sales with time 0.2 seed 7", 0},
		{"SELECT COUNT(*) FROM t WHERE v > 90 WITH PRECISION 0.5 SEED 1", 1}, // one predicate
	} {
		q, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := Parse(c.sql); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.want {
			t.Errorf("%s: %.1f allocations per Parse, want at most %.0f (%d predicates)", c.sql, got, c.want, len(q.Predicates))
		}
	}
}

// TestParseLongStatement: a statement with more tokens than the stack array
// holds spills them to the heap and parses all the same.
func TestParseLongStatement(t *testing.T) {
	conj := make([]string, 20) // 80 tokens of WHERE alone
	for i := range conj {
		conj[i] = fmt.Sprintf("v > %d", i)
	}
	sql := "SELECT AVG(v) FROM t WHERE " + strings.Join(conj, " AND ") + " WITH PRECISION 0.5 SEED 3"
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Predicates) != len(conj) || q.Predicates[19].Value != 19 || q.Seed != 3 {
		t.Fatalf("parsed %+v", q)
	}
	back, err := Parse(q.String())
	if err != nil || !back.Equal(q) {
		t.Fatalf("round trip: %v, %+v", err, back)
	}
}
