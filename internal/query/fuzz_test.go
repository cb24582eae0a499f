package query

import "testing"

// FuzzParse drives the lexer and parser with arbitrary input. The
// contract under fuzzing: Parse never panics — malformed statements
// return errors — and any statement that does parse survives the
// String→Parse round trip unchanged (the canonical-form property the
// engine relies on when logging and re-submitting queries).
func FuzzParse(f *testing.F) {
	// Seed corpus: every dialect shape from the README and the root
	// package's example_test.go plus known edge cases (signed numbers,
	// exponents, semicolons, mixed case, unicode identifiers, malformed
	// fragments).
	seeds := []string{
		"SELECT AVG(v) FROM sales WITH PRECISION 0.1",
		"SELECT AVG(v) FROM sales WITH PRECISION 0.1 CONFIDENCE 0.99",
		"SELECT SUM(v) FROM warehouse WITH PRECISION 0.5 SAMPLEFRACTION 0.33 SEED 42",
		"SELECT COUNT(*) FROM sales",
		"SELECT AVG(v) FROM t METHOD EXACT",
		"SELECT AVG(v) FROM t WITH TIME 1.5",
		"SELECT AVG(v) FROM t WHERE PRECISION 0.2 AND CONFIDENCE 0.9",
		"SELECT AVG(v) FROM t WHERE v > 10 WITH PRECISION 0.1",
		"SELECT AVG(v) FROM t WHERE v > 10 AND v <= 200 GROUP BY g WITH PRECISION 0.1",
		"SELECT SUM(v) FROM t WHERE v >= -1.5 AND v <> 0 WITH PRECISION 0.5 SEED 3",
		"SELECT COUNT(*) FROM t WHERE v = 42 WITH PRECISION 0.1",
		"SELECT COUNT(*) FROM t WHERE v != 42 METHOD EXACT",
		"SELECT AVG(v) FROM t GROUP BY region WITH PRECISION 0.2",
		"SELECT AVG(v) FROM t GROUP BY region METHOD EXACT",
		"SELECT AVG(v) FROM t WHERE v < 1e3 GROUP BY g WITH PRECISION 0.1 CONFIDENCE 0.9",
		"SELECT AVG(v) FROM t WHERE w > 10 WITH PRECISION 0.1",
		"SELECT AVG(v) FROM t WHERE v > 10 GROUP BY v WITH PRECISION 0.1",
		"SELECT AVG(v) FROM t WHERE v > 10 METHOD US WITH PRECISION 0.1",
		"SELECT AVG(v) FROM t GROUP BY g WITH TIME 0.5",
		"SELECT AVG(v) FROM sales GROUP BY region WITH PRECISION 0.5 SEED 27",
		"SELECT AVG(v) FROM sales WHERE v > 60 GROUP BY region WITH PRECISION 0.5 SEED 7",
		"SELECT COUNT(v) FROM sales GROUP BY region",
		"SELECT AVG(d) FROM trips WITH PRECISION 25 METHOD MVB SEED 9",
		"SELECT AVG(v) FROM t WHERE v >",
		"SELECT AVG(v) FROM t WHERE > 10",
		"SELECT AVG(v) FROM t GROUP g",
		"SELECT AVG(v) FROM t GROUP BY",
		"SELECT AVG(v) FROM t WHERE v ! 10",
		"SELECT AVG(v) FROM t WHERE v <> 10 GROUP BY a GROUP BY b",
		"select avg(price) from trips with precision 2 method isla;",
		"SELECT AVG(v) FROM t WITH PRECISION 1e-3 SEED 7",
		"SELECT AVG(v) FROM t WITH PRECISION +0.5",
		"SELECT AVG(v) FROM t WITH PRECISION -1",
		"SELECT AVG(v) FROM t WITH PRECISION 1e309",
		"SELECT AVG(v) FROM t WITH SEED 1.5",
		"SELECT MAX(v) FROM t",
		"SELECT AVG(*) FROM t",
		"SELECT AVG(v FROM t",
		"SELECT AVG(v) FROM",
		"SELECT AVG(v) FROM t WITH",
		"SELECT AVG(αβ.col_1) FROM πίνακας WITH PRECISION .5",
		"",
		";;;",
		"((((((((",
		"SELECT",
		"42",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := Parse(input)
		if err != nil {
			return // rejecting with an error is always acceptable
		}
		// Accepted statements must round-trip through the canonical form.
		canonical := q.String()
		q2, err := Parse(canonical)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %q → %q: %v", input, canonical, err)
		}
		if !q2.Equal(q) {
			t.Fatalf("round trip changed the query: %q → %+v, reparsed %+v", input, q, q2)
		}
	})
}
