package query

import (
	"strings"
	"testing"
)

func TestParseBasicAvg(t *testing.T) {
	q, err := Parse("SELECT AVG(price) FROM sales WITH PRECISION 0.1")
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg != AVG || q.Column != "price" || q.Table != "sales" || q.Precision != 0.1 {
		t.Fatalf("q = %+v", q)
	}
	if q.Method != MethodISLA {
		t.Fatalf("default method = %v, want ISLA", q.Method)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse("select avg(x) from t with precision 0.5 confidence 0.99")
	if err != nil {
		t.Fatal(err)
	}
	if q.Confidence != 0.99 || q.Precision != 0.5 {
		t.Fatalf("q = %+v", q)
	}
}

func TestParseWhereConnective(t *testing.T) {
	// The paper writes "WHERE desired precision"; accept WHERE too.
	q, err := Parse("SELECT AVG(v) FROM data WHERE PRECISION 0.25")
	if err != nil {
		t.Fatal(err)
	}
	if q.Precision != 0.25 {
		t.Fatalf("q = %+v", q)
	}
}

func TestParseAllOptions(t *testing.T) {
	q, err := Parse("SELECT SUM(amount) FROM ledger WITH PRECISION 0.2 AND CONFIDENCE 0.9 METHOD MVB SAMPLEFRACTION 0.33 SEED 7")
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg != SUM || q.Method != MethodMVB || q.SampleFraction != 0.33 || !q.HasSeed || q.Seed != 7 {
		t.Fatalf("q = %+v", q)
	}
}

func TestParseCountStar(t *testing.T) {
	q, err := Parse("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if q.Agg != COUNT || q.Column != "*" {
		t.Fatalf("q = %+v", q)
	}
}

func TestParseMethodAliases(t *testing.T) {
	for text, want := range map[string]Method{
		"uniform": MethodUS, "US": MethodUS, "sts": MethodSTS,
		"stratified": MethodSTS, "mv": MethodMV, "exact": MethodExact,
		"isla": MethodISLA,
	} {
		q, err := Parse("SELECT AVG(x) FROM t WITH PRECISION 1 METHOD " + text)
		if err != nil {
			t.Fatalf("method %q: %v", text, err)
		}
		if q.Method != want {
			t.Errorf("method %q = %v, want %v", text, q.Method, want)
		}
	}
}

func TestParseExactNeedsNoPrecision(t *testing.T) {
	if _, err := Parse("SELECT AVG(x) FROM t METHOD EXACT"); err != nil {
		t.Fatalf("exact without precision rejected: %v", err)
	}
}

func TestParseScientificNumbers(t *testing.T) {
	q, err := Parse("SELECT AVG(x) FROM t WITH PRECISION 2.5e-2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Precision != 0.025 {
		t.Fatalf("precision = %v", q.Precision)
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	if _, err := Parse("SELECT AVG(x) FROM t WITH PRECISION 1;"); err != nil {
		t.Fatalf("semicolon rejected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in, wantSub string
	}{
		{"", "expected SELECT"},
		{"SELECT MEDIAN(x) FROM t", "expected AVG"},
		{"SELECT AVG x FROM t", "'('"},
		{"SELECT AVG() FROM t WITH PRECISION 1", "column name"},
		{"SELECT AVG(*) FROM t WITH PRECISION 1", "name a column"},
		{"SELECT AVG(x) t WITH PRECISION 1", "expected FROM"},
		{"SELECT AVG(x) FROM t", "requires WITH PRECISION"},
		{"SELECT AVG(x) FROM t WITH PRECISION -1", "requires WITH PRECISION"},
		{"SELECT AVG(x) FROM t WITH PRECISION 1 CONFIDENCE 2", "outside (0,1)"},
		{"SELECT AVG(x) FROM t WITH PRECISION 1 SAMPLEFRACTION 3", "outside (0,1]"},
		{"SELECT AVG(x) FROM t WITH PRECISION 1 METHOD bogus", "unknown method"},
		{"SELECT AVG(x) FROM t WITH PRECISION 1 SEED -4", "SEED"},
		{"SELECT AVG(x) FROM t WITH PRECISION 1 SEED 1.5", "SEED"},
		{"SELECT AVG(x) FROM t WITH PRECISION 1 GARBAGE", "unexpected"},
		{"SELECT AVG(x) FROM t WITH PRECISION", "expected number"},
		{"SELECT AVG(x FROM t WITH PRECISION 1", "')'"},
		{"SELECT @ FROM t", "unexpected character"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.in, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error %q does not contain %q", c.in, err, c.wantSub)
		}
	}
}

func TestAggMethodStrings(t *testing.T) {
	if AVG.String() != "AVG" || SUM.String() != "SUM" || COUNT.String() != "COUNT" {
		t.Fatal("Agg.String broken")
	}
	for m, want := range map[Method]string{
		MethodISLA: "ISLA", MethodExact: "EXACT", MethodUS: "US",
		MethodSTS: "STS", MethodMV: "MV", MethodMVB: "MVB",
	} {
		if m.String() != want {
			t.Errorf("%v.String() = %q", int(m), m.String())
		}
	}
}

func TestLexerNumberForms(t *testing.T) {
	toks, err := lex(nil, "1 2.5 .5 1e3 1E-2 +4 -7.25")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "2.5", ".5", "1e3", "1E-2", "+4", "-7.25"}
	if len(toks)-1 != len(want) { // minus EOF
		t.Fatalf("got %d tokens, want %d", len(toks)-1, len(want))
	}
	for i, w := range want {
		if toks[i].kind != tokNumber || toks[i].text != w {
			t.Errorf("token %d = %+v, want number %q", i, toks[i], w)
		}
	}
}

func TestTokenKindStrings(t *testing.T) {
	kinds := []tokenKind{tokEOF, tokIdent, tokNumber, tokLParen, tokRParen, tokStar, tokComma}
	for _, k := range kinds {
		if k.String() == "unknown token" {
			t.Errorf("kind %d has no name", int(k))
		}
	}
}

func TestParsePredicates(t *testing.T) {
	q, err := Parse("SELECT AVG(v) FROM t WHERE v > 10 AND v <= 2e2 WITH PRECISION 0.1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Predicate{{Column: "v", Op: GT, Value: 10}, {Column: "v", Op: LE, Value: 200}}
	if len(q.Predicates) != 2 || q.Predicates[0] != want[0] || q.Predicates[1] != want[1] {
		t.Fatalf("predicates = %+v", q.Predicates)
	}
}

func TestParsePredicateOperators(t *testing.T) {
	for _, tc := range []struct {
		src string
		op  CmpOp
	}{
		{"v < 1", LT}, {"v <= 1", LE}, {"v > 1", GT}, {"v >= 1", GE},
		{"v = 1", EQ}, {"v <> 1", NE}, {"v != 1", NE},
	} {
		q, err := Parse("SELECT AVG(v) FROM t WHERE " + tc.src + " WITH PRECISION 1")
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if len(q.Predicates) != 1 || q.Predicates[0].Op != tc.op {
			t.Fatalf("%s: predicates = %+v", tc.src, q.Predicates)
		}
	}
}

func TestParseGroupBy(t *testing.T) {
	q, err := Parse("SELECT AVG(v) FROM sales WHERE v > -5 GROUP BY region WITH PRECISION 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if q.GroupBy != "region" || len(q.Predicates) != 1 || q.Predicates[0].Value != -5 {
		t.Fatalf("q = %+v", q)
	}
}

func TestParseGroupByExactCount(t *testing.T) {
	// Unfiltered grouped COUNT stays exact from metadata: no precision needed.
	if _, err := Parse("SELECT COUNT(v) FROM t GROUP BY g"); err != nil {
		t.Fatal(err)
	}
	// Filtered COUNT is an estimate and needs precision (or EXACT).
	if _, err := Parse("SELECT COUNT(*) FROM t WHERE v > 0"); err == nil {
		t.Fatal("filtered COUNT without precision accepted")
	}
	if _, err := Parse("SELECT COUNT(*) FROM t WHERE v > 0 METHOD EXACT"); err != nil {
		t.Fatal(err)
	}
}

func TestParseGroupedFilteredErrors(t *testing.T) {
	for _, src := range []string{
		"SELECT AVG(v) FROM t WHERE w > 10 WITH PRECISION 0.1",          // predicate on another column
		"SELECT COUNT(*) FROM t WHERE v > 0 AND w < 9 WITH PRECISION 1", // conjuncts disagree
		"SELECT AVG(v) FROM t WHERE v > 10 METHOD US WITH PRECISION 1",  // baseline + predicate
		"SELECT AVG(v) FROM t GROUP BY g METHOD STS WITH PRECISION 1",   // baseline + group by
		"SELECT AVG(v) FROM t WHERE v > 10 WITH TIME 1",                 // time + predicate
		"SELECT AVG(v) FROM t GROUP BY g WITH TIME 1",                   // time + group by
		"SELECT AVG(v) FROM t GROUP BY v WITH PRECISION 1",              // grouping the value column
		"SELECT AVG(v) FROM t GROUP BY a GROUP BY b WITH PRECISION 1",   // duplicate group by
		"SELECT AVG(v) FROM t WHERE v > WITH PRECISION 1",               // missing literal
		"SELECT AVG(v) FROM t WHERE > 10 WITH PRECISION 1",              // missing column
		"SELECT AVG(v) FROM t GROUP region WITH PRECISION 1",            // missing BY
		"SELECT AVG(v) FROM t WHERE v ! 10 WITH PRECISION 1",            // bare !
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseOptionKeywordsAreNotPredicateColumns(t *testing.T) {
	// Option keywords keep their meaning even when followed by a
	// comparison token: these are malformed options, never predicates on
	// columns named like options.
	for _, src := range []string{
		"SELECT COUNT(*) FROM t METHOD EXACT WHERE PRECISION = 0.5",
		"SELECT COUNT(*) FROM t WHERE seed > 1 METHOD EXACT",
		"SELECT COUNT(*) FROM t WHERE time <> 2 METHOD EXACT",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}
