// Package sql implements the hybrid-query SQL dialect of BlendHouse
// (paper §II-B, Example 1): CREATE TABLE with vector columns, INDEX
// ... TYPE HNSW(...) clauses, PARTITION BY and CLUSTER BY ... INTO n
// BUCKETS; INSERT (VALUES and CSV INFILE); and SELECT with WHERE
// filters, distance functions in ORDER BY (top-k search) or WHERE
// (range search), LIMIT, and SETTINGS. The design goals follow the
// paper's two integration guidelines: reuse existing SQL syntax, and
// never change existing SQL semantics.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer output.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokPunct // single punctuation: ( ) , [ ] ; . *
	TokOp    // comparison ops: = != < <= > >=
)

// Token is one lexeme with its position for error reporting.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int
}

// Lexer tokenizes a SQL string.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '\'':
		return l.lexString()
	case isDigit(c) || (c == '-' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		return l.lexNumber()
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.pos], Pos: start}, nil
	case strings.ContainsRune("(),[];.*", rune(c)):
		l.pos++
		return Token{Kind: TokPunct, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '=':
		l.pos++
		return Token{Kind: TokOp, Text: "=", Pos: start}, nil
	case c == '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return Token{Kind: TokOp, Text: "!=", Pos: start}, nil
		}
		return Token{}, fmt.Errorf("sql: unexpected '!' at %d", start)
	case c == '<' || c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		return Token{Kind: TokOp, Text: l.src[start:l.pos], Pos: start}, nil
	default:
		return Token{}, fmt.Errorf("sql: unexpected character %q at %d", c, start)
	}
}

// listLen sizes the bracketed list opening at src[open]: one element
// per comma before the closing bracket, plus one. A hint, not a parse —
// elements separated by spaces alone are undercounted and grow by
// append.
func (l *Lexer) listLen(open int) int {
	n := 1
	for i := open + 1; i < len(l.src) && l.src[i] != ']'; i++ {
		if l.src[i] == ',' {
			n++
		}
	}
	return n
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			// line comment
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if !unicode.IsSpace(rune(c)) {
			return
		}
		l.pos++
	}
}

func (l *Lexer) lexString() (Token, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'') // escaped quote
				l.pos += 2
				continue
			}
			l.pos++
			return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return Token{}, fmt.Errorf("sql: unterminated string starting at %d", start)
}

func (l *Lexer) lexNumber() (Token, error) {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot && !seenExp {
			seenDot = true
			l.pos++
			continue
		}
		if (c == 'e' || c == 'E') && !seenExp && l.pos > start {
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
			continue
		}
		break
	}
	return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || unicode.IsLetter(rune(c)) }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }

// LeadsWith reports whether the first token of src is the keyword kw
// (case-insensitive; leading space and comments skipped). It lexes one
// token and allocates nothing, for callers that route on the statement
// kind before — or instead of — parsing.
func LeadsWith(src, kw string) bool {
	t, err := NewLexer(src).Next()
	return err == nil && t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

// Tokenize runs the lexer to completion (testing helper).
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return out, nil
		}
		out = append(out, t)
	}
}
