package query

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Agg identifies the aggregation function of a query.
type Agg int

// Supported aggregate functions.
const (
	AVG Agg = iota
	SUM
	COUNT
)

// String returns the SQL spelling.
func (a Agg) String() string {
	switch a {
	case AVG:
		return "AVG"
	case SUM:
		return "SUM"
	case COUNT:
		return "COUNT"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// Method selects which estimator executes the query.
type Method int

// Available estimators: ISLA plus the paper's baselines.
const (
	MethodISLA Method = iota
	MethodExact
	MethodUS
	MethodSTS
	MethodMV
	MethodMVB
)

// String returns the method's canonical name.
func (m Method) String() string {
	switch m {
	case MethodISLA:
		return "ISLA"
	case MethodExact:
		return "EXACT"
	case MethodUS:
		return "US"
	case MethodSTS:
		return "STS"
	case MethodMV:
		return "MV"
	case MethodMVB:
		return "MVB"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// parseMethod maps a user-supplied method name.
func parseMethod(s string) (Method, error) {
	switch strings.ToUpper(s) {
	case "ISLA":
		return MethodISLA, nil
	case "EXACT":
		return MethodExact, nil
	case "US", "UNIFORM":
		return MethodUS, nil
	case "STS", "STRATIFIED":
		return MethodSTS, nil
	case "MV":
		return MethodMV, nil
	case "MVB":
		return MethodMVB, nil
	default:
		return 0, fmt.Errorf("query: unknown method %q", s)
	}
}

// Query is the parsed form of a statement. Query is not comparable with ==
// (Predicates is a slice); use Equal.
type Query struct {
	Agg            Agg
	Column         string // "*" only for COUNT
	Table          string
	Precision      float64 // required for AVG/SUM unless METHOD EXACT or TIME
	Confidence     float64 // 0 means "use the engine default"
	Method         Method
	SampleFraction float64 // 0 means 1
	Seed           uint64  // 0 means engine default
	HasSeed        bool
	// TimeBudget, in seconds, switches ISLA to the §VII-F time-constraint
	// mode: the precision is derived from what the budget affords.
	TimeBudget float64
	// Predicates are the WHERE conjuncts on the value column; empty means
	// unfiltered.
	Predicates []Predicate
	// GroupBy is the GROUP BY column; "" means ungrouped.
	GroupBy string
}

// Equal reports structural equality of two parsed queries.
func (q Query) Equal(o Query) bool {
	return q.Agg == o.Agg &&
		q.Column == o.Column &&
		q.Table == o.Table &&
		q.Precision == o.Precision &&
		q.Confidence == o.Confidence &&
		q.Method == o.Method &&
		q.SampleFraction == o.SampleFraction &&
		q.Seed == o.Seed &&
		q.HasSeed == o.HasSeed &&
		q.TimeBudget == o.TimeBudget &&
		slices.Equal(q.Predicates, o.Predicates) &&
		q.GroupBy == o.GroupBy
}

// Parse parses one statement of the dialect described in the package
// comment.
func Parse(input string) (Query, error) {
	q, err := parseRaw(input)
	if err != nil {
		return Query{}, err
	}
	if err := validate(q); err != nil {
		return Query{}, err
	}
	return q, nil
}

// ParseWithTimeBudget parses input with an out-of-band wall-clock budget
// (seconds) injected before cross-field validation — the serve layer's
// budget_ms. The statement is then judged exactly as if it had been written
// with WITH TIME: one that omits its precision target parses, and WHERE,
// GROUP BY or a non-ISLA method refuse the budget as they refuse TIME, and a
// budget TIME would refuse is refused. A statement that already carries WITH
// TIME is refused.
func ParseWithTimeBudget(input string, seconds float64) (Query, error) {
	q, err := parseRaw(input)
	if err != nil {
		return Query{}, err
	}
	if err := checkBudget(seconds); err != nil {
		return Query{}, err
	}
	if q.TimeBudget > 0 {
		return Query{}, fmt.Errorf("query: statement already carries WITH TIME %v", q.TimeBudget)
	}
	q.TimeBudget = seconds
	if err := validate(q); err != nil {
		return Query{}, err
	}
	return q, nil
}

// stackTokens is how many tokens parseRaw lexes into an array on its stack:
// more than any statement of the dialect without a long WHERE conjunction
// needs. Only a longer statement spills its tokens to the heap.
const stackTokens = 32

// parseRaw lexes and parses without the cross-field validation pass.
func parseRaw(input string) (Query, error) {
	var buf [stackTokens]token
	toks, err := lex(buf[:0], input)
	if err != nil {
		return Query{}, err
	}
	p := parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return Query{}, err
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
	seen clause // the WITH clauses parsed so far
}

// clause is a set of WITH clauses, one bit each: a statement names each at
// most once.
type clause uint8

const (
	clausePrecision clause = 1 << iota
	clauseConfidence
	clauseMethod
	clauseSampleFraction
	clauseTime
	clauseSeed
)

// clauseKeyword consumes t, the keyword of clause c, refusing a second one.
func (p *parser) clauseKeyword(t token, c clause) error {
	if p.seen&c != 0 {
		return fmt.Errorf("query: duplicate %s at position %d", strings.ToUpper(t.text), t.pos)
	}
	p.seen |= c
	p.next()
	return nil
}

// checkBudget refuses a time budget, in seconds, that time.Duration cannot
// hold: one that is not positive, rounds to zero nanoseconds or overflows.
func checkBudget(seconds float64) error {
	if !(seconds > 0) {
		return fmt.Errorf("query: TIME %v must be positive", seconds)
	}
	if ns := seconds * float64(time.Second); !(ns >= 1 && ns < math.MaxInt64) {
		return fmt.Errorf("query: TIME %v is outside [1ns, %v]", seconds, time.Duration(math.MaxInt64))
	}
	return nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

// peek returns the token after the current one. Safe whenever cur is not
// EOF: the stream always ends with a tokEOF sentinel.
func (p *parser) peek() token {
	if p.i+1 >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.i+1]
}

// isCmpKind reports whether kind is a comparison operator token.
func isCmpKind(kind tokenKind) bool {
	switch kind {
	case tokLT, tokLE, tokGT, tokGE, tokEQ, tokNE:
		return true
	}
	return false
}

// cmpOp maps a comparison token to its operator.
func cmpOp(kind tokenKind) CmpOp {
	switch kind {
	case tokLT:
		return LT
	case tokLE:
		return LE
	case tokGT:
		return GT
	case tokGE:
		return GE
	case tokEQ:
		return EQ
	default: // tokNE; isCmpKind gates every caller
		return NE
	}
}

// parsePredicate consumes "<ident> <cmp> <number>". The caller has already
// checked that the next two tokens have that shape's prefix.
func (p *parser) parsePredicate() (Predicate, error) {
	col := p.next()
	op := p.next()
	v, err := p.number()
	if err != nil {
		return Predicate{}, err
	}
	return Predicate{Column: col.text, Op: cmpOp(op.kind), Value: v}, nil
}

func (p *parser) expectKeyword(kw string) error {
	if !keywordIs(p.cur(), kw) {
		return fmt.Errorf("query: expected %s at position %d, got %q", kw, p.cur().pos, p.cur().text)
	}
	p.next()
	return nil
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.cur().kind != kind {
		return token{}, fmt.Errorf("query: expected %v at position %d, got %q", kind, p.cur().pos, p.cur().text)
	}
	return p.next(), nil
}

func (p *parser) number() (float64, error) {
	t, err := p.expect(tokNumber)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("query: bad number %q at position %d", t.text, t.pos)
	}
	return v, nil
}

func (p *parser) parseQuery() (Query, error) {
	var q Query
	if err := p.expectKeyword("SELECT"); err != nil {
		return q, err
	}

	aggTok := p.cur()
	switch {
	case keywordIs(aggTok, "AVG"):
		q.Agg = AVG
	case keywordIs(aggTok, "SUM"):
		q.Agg = SUM
	case keywordIs(aggTok, "COUNT"):
		q.Agg = COUNT
	default:
		return q, fmt.Errorf("query: expected AVG, SUM or COUNT at position %d, got %q", aggTok.pos, aggTok.text)
	}
	p.next()

	if _, err := p.expect(tokLParen); err != nil {
		return q, err
	}
	switch p.cur().kind {
	case tokStar:
		if q.Agg != COUNT {
			return q, fmt.Errorf("query: %v(*) is not supported; name a column", q.Agg)
		}
		q.Column = "*"
		p.next()
	case tokIdent:
		q.Column = p.next().text
	default:
		return q, fmt.Errorf("query: expected column name at position %d, got %q", p.cur().pos, p.cur().text)
	}
	if _, err := p.expect(tokRParen); err != nil {
		return q, err
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return q, err
	}
	tbl, err := p.expect(tokIdent)
	if err != nil {
		return q, err
	}
	q.Table = tbl.text

	// Options: WITH/WHERE PRECISION e | CONFIDENCE b | METHOD m |
	// SAMPLEFRACTION f | SEED n, in any order. WITH and WHERE are
	// interchangeable connectives (the paper writes WHERE desired_precision).
	// A WHERE/AND followed by "<ident> <cmp> <number>" is instead a value
	// predicate, and GROUP BY names the group column — both may appear
	// anywhere among the options; the canonical order (String) is
	// WHERE … GROUP BY … WITH ….
	for {
		t := p.cur()
		switch {
		case t.kind == tokEOF:
			return q, nil
		case keywordIs(t, "WITH"), keywordIs(t, "WHERE"), keywordIs(t, "AND"):
			p.next()
		case keywordIs(t, "GROUP"):
			p.next()
			if err := p.expectKeyword("BY"); err != nil {
				return q, err
			}
			col, err := p.expect(tokIdent)
			if err != nil {
				return q, err
			}
			if q.GroupBy != "" {
				return q, fmt.Errorf("query: duplicate GROUP BY at position %d", t.pos)
			}
			q.GroupBy = col.text
		case keywordIs(t, "PRECISION"):
			if err := p.clauseKeyword(t, clausePrecision); err != nil {
				return q, err
			}
			if q.Precision, err = p.number(); err != nil {
				return q, err
			}
		case keywordIs(t, "CONFIDENCE"):
			if err := p.clauseKeyword(t, clauseConfidence); err != nil {
				return q, err
			}
			if q.Confidence, err = p.number(); err != nil {
				return q, err
			}
			if !(q.Confidence > 0 && q.Confidence < 1) {
				return q, fmt.Errorf("query: CONFIDENCE %v outside (0,1)", q.Confidence)
			}
		case keywordIs(t, "METHOD"):
			if err := p.clauseKeyword(t, clauseMethod); err != nil {
				return q, err
			}
			name, err := p.expect(tokIdent)
			if err != nil {
				return q, err
			}
			if q.Method, err = parseMethod(name.text); err != nil {
				return q, err
			}
		case keywordIs(t, "SAMPLEFRACTION"):
			if err := p.clauseKeyword(t, clauseSampleFraction); err != nil {
				return q, err
			}
			if q.SampleFraction, err = p.number(); err != nil {
				return q, err
			}
		case keywordIs(t, "TIME"):
			if err := p.clauseKeyword(t, clauseTime); err != nil {
				return q, err
			}
			if q.TimeBudget, err = p.number(); err != nil {
				return q, err
			}
			if err := checkBudget(q.TimeBudget); err != nil {
				return q, err
			}
		case keywordIs(t, "SEED"):
			if err := p.clauseKeyword(t, clauseSeed); err != nil {
				return q, err
			}
			v, err := p.number()
			if err != nil {
				return q, err
			}
			if v < 0 || v != float64(uint64(v)) {
				return q, fmt.Errorf("query: SEED must be a non-negative integer, got %v", v)
			}
			q.Seed = uint64(v)
			q.HasSeed = true
		case t.kind == tokIdent && isCmpKind(p.peek().kind):
			// Checked after every option keyword, so "PRECISION = 0.5" is
			// a malformed option, not a predicate on a column named
			// PRECISION — option keywords cannot be filtered on.
			pred, err := p.parsePredicate()
			if err != nil {
				return q, err
			}
			q.Predicates = append(q.Predicates, pred)
		default:
			return q, fmt.Errorf("query: unexpected %q at position %d", t.text, t.pos)
		}
	}
}

// validate applies cross-field validation once the token stream is
// consumed — after any out-of-band time budget has been injected.
func validate(q Query) error {
	// An unfiltered COUNT is exact from metadata; a filtered COUNT is an
	// estimated selectivity count and needs a precision target like AVG.
	needsPrecision := q.Agg != COUNT || len(q.Predicates) > 0
	if needsPrecision && q.Method != MethodExact && q.Precision <= 0 && q.TimeBudget <= 0 {
		return fmt.Errorf("query: %v requires WITH PRECISION e > 0, TIME t > 0 or METHOD EXACT", q.Agg)
	}
	if len(q.Predicates) > 0 {
		if q.Method != MethodISLA && q.Method != MethodExact {
			return fmt.Errorf("query: WHERE predicates are not supported with METHOD %v", q.Method)
		}
		if q.TimeBudget > 0 {
			return fmt.Errorf("query: TIME cannot be combined with WHERE predicates")
		}
		for _, pr := range q.Predicates {
			// Tables are single-column, so every predicate filters the
			// aggregated column; COUNT(*) may name it freely but the
			// conjuncts must agree with each other.
			if q.Column != "*" && pr.Column != q.Column {
				return fmt.Errorf("query: predicate column %q does not match aggregated column %q", pr.Column, q.Column)
			}
			if pr.Column != q.Predicates[0].Column {
				return fmt.Errorf("query: predicate columns %q and %q disagree", q.Predicates[0].Column, pr.Column)
			}
		}
	}
	if q.GroupBy != "" {
		if q.Method != MethodISLA && q.Method != MethodExact {
			return fmt.Errorf("query: GROUP BY is not supported with METHOD %v", q.Method)
		}
		if q.TimeBudget > 0 {
			return fmt.Errorf("query: TIME cannot be combined with GROUP BY")
		}
		if q.GroupBy == q.Column {
			return fmt.Errorf("query: GROUP BY column %q is the aggregated column", q.GroupBy)
		}
	}
	if q.TimeBudget > 0 && q.Method != MethodISLA {
		return fmt.Errorf("query: TIME is only supported with METHOD ISLA")
	}
	if q.SampleFraction != 0 && !(q.SampleFraction > 0 && q.SampleFraction <= 1) {
		return fmt.Errorf("query: SAMPLEFRACTION %v outside (0,1]", q.SampleFraction)
	}
	return nil
}
