// Package query implements the small SQL dialect of the paper's system:
//
//	SELECT AVG(col) FROM table [WHERE col > 10 [AND col <= 20]]
//	       [GROUP BY g] WITH PRECISION 0.1
//	       [CONFIDENCE 0.95] [METHOD ISLA] [SAMPLEFRACTION 0.33] [SEED 42]
//
// SUM and COUNT are accepted alongside AVG (SUM derives from AVG·M per
// §VII-D; COUNT is exact from metadata unless a WHERE predicate makes it an
// estimated selectivity count). WHERE carries comparison predicates on the
// value column — conjunctions of <, <=, >, >=, = and <> against numeric
// literals — and GROUP BY names the group column of a grouped table
// (§VII-D). The dialect is deliberately tiny — a tokenizer plus a
// recursive-descent parser over a fixed grammar — but it rejects malformed
// input with positioned errors like a real front end.
package query

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokLParen
	tokRParen
	tokStar
	tokComma
	tokLT // <
	tokLE // <=
	tokGT // >
	tokGE // >=
	tokEQ // =
	tokNE // <> or !=
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokStar:
		return "'*'"
	case tokComma:
		return "','"
	case tokLT:
		return "'<'"
	case tokLE:
		return "'<='"
	case tokGT:
		return "'>'"
	case tokGE:
		return "'>='"
	case tokEQ:
		return "'='"
	case tokNE:
		return "'<>'"
	default:
		return "unknown token"
	}
}

// token is one lexical unit with its source position (byte offset).
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lex appends the input's tokens to toks and returns the result.
// Identifiers are reported verbatim; keyword recognition happens
// case-insensitively in the parser.
func lex(toks []token, input string) ([]token, error) {
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == '*':
			toks = append(toks, token{tokStar, "*", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == ';':
			i++ // trailing semicolons are harmless
		case c == '<':
			switch {
			case i+1 < len(input) && input[i+1] == '=':
				toks = append(toks, token{tokLE, "<=", i})
				i += 2
			case i+1 < len(input) && input[i+1] == '>':
				toks = append(toks, token{tokNE, "<>", i})
				i += 2
			default:
				toks = append(toks, token{tokLT, "<", i})
				i++
			}
		case c == '>':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{tokGE, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokGT, ">", i})
				i++
			}
		case c == '=':
			toks = append(toks, token{tokEQ, "=", i})
			i++
		case c == '!':
			if i+1 < len(input) && input[i+1] == '=' {
				toks = append(toks, token{tokNE, "!=", i})
				i += 2
			} else {
				return nil, fmt.Errorf("query: unexpected character %q at position %d (did you mean !=?)", c, i)
			}
		case isDigit(c) || c == '.' || ((c == '-' || c == '+') && i+1 < len(input) && (isDigit(input[i+1]) || input[i+1] == '.')):
			start := i
			if c == '-' || c == '+' {
				i++
			}
			seenDot := false
			seenExp := false
			for i < len(input) {
				ch := input[i]
				if isDigit(ch) {
					i++
					continue
				}
				if ch == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
					continue
				}
				if (ch == 'e' || ch == 'E') && !seenExp && i > start {
					seenExp = true
					i++
					if i < len(input) && (input[i] == '+' || input[i] == '-') {
						i++
					}
					continue
				}
				break
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case isIdentStart(rune(c)):
			start := i
			for i < len(input) && isIdentPart(rune(input[i])) {
				i++
			}
			toks = append(toks, token{tokIdent, input[start:i], start})
		default:
			return nil, fmt.Errorf("query: unexpected character %q at position %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(input)})
	return toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '.'
}

// keywordIs reports whether tok is the given keyword, case-insensitively.
func keywordIs(tok token, kw string) bool {
	return tok.kind == tokIdent && strings.EqualFold(tok.text, kw)
}
