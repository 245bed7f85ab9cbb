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
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
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
	r, size := l.runeAt(l.pos)
	switch {
	case c == '\'':
		return l.lexString()
	case l.atNumber():
		l.scanNumber()
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case isIdentStart(r):
		for l.pos += size; l.pos < len(l.src); l.pos += size {
			if r, size = l.runeAt(l.pos); !isIdentPart(r) {
				break
			}
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
		return Token{}, fmt.Errorf("sql: unexpected character %q at %d", r, start)
	}
}

// listLen sizes the bracketed list opening at src[open]: one element
// per comma before the closing bracket, plus one. A hint, not a parse —
// elements separated by spaces alone are undercounted and grow by
// append.
func (l *Lexer) listLen(open int) int {
	list := l.src[open+1:]
	if end := strings.IndexByte(list, ']'); end >= 0 {
		list = list[:end]
	}
	return strings.Count(list, ",") + 1
}

// vectorElems converts the elements of the list whose '[' is at
// src[open], from l.pos on: each is scanned with skipSpace and the
// number grammar and converted as it is read, up to the first thing
// that is neither an element nor a comma, where l.pos stops.
// Separators are optional; listLen sizes the one slice a non-empty
// list allocates. The serial parse and the deferred workers both
// convert with it.
func (l *Lexer) vectorElems(open int) ([]float32, error) {
	var out []float32
	for l.skipSpace(); l.atNumber(); l.skipSpace() {
		start := l.pos
		f, ok := l.scanNumber()
		if !ok {
			f64, err := strconv.ParseFloat(l.src[start:l.pos], 32)
			if err != nil {
				return nil, fmt.Errorf("sql: bad vector element %q", l.src[start:l.pos])
			}
			f = float32(f64)
		}
		if out == nil {
			out = make([]float32, 0, l.listLen(open))
		}
		out = append(out, f)
		if l.skipSpace(); l.pos < len(l.src) && l.src[l.pos] == ',' {
			l.pos++
		}
	}
	return out, nil
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
		if c == ' ' || '\t' <= c && c <= '\r' {
			l.pos++
			continue
		}
		if c < utf8.RuneSelf {
			return
		}
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsSpace(r) {
			return
		}
		l.pos += size
	}
}

// runeAt decodes the rune at src[i] and its width in bytes: a byte
// is a rune only below utf8.RuneSelf, and an invalid byte is
// utf8.RuneError, one byte wide.
func (l *Lexer) runeAt(i int) (rune, int) {
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

// lexString reads a quoted string, in which a doubled quote stands for
// one: each run up to the next quote is found with IndexByte and
// copied whole.
func (l *Lexer) lexString() (Token, error) {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for {
		n := strings.IndexByte(l.src[l.pos:], '\'')
		if n < 0 {
			l.pos = len(l.src)
			return Token{}, fmt.Errorf("sql: unterminated string starting at %d", start)
		}
		sb.WriteString(l.src[l.pos : l.pos+n])
		l.pos += n + 1
		if l.pos < len(l.src) && l.src[l.pos] == '\'' {
			sb.WriteByte('\'') // escaped quote
			l.pos++
			continue
		}
		return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
	}
}

// atNumber reports whether a number starts at l.pos: a digit, or '-'
// and a digit.
func (l *Lexer) atNumber() bool {
	src, i := l.src, l.pos
	if i < len(src) && src[i] == '-' {
		i++
	}
	return i < len(src) && isDigit(src[i])
}

// pow10 holds the powers of ten that a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// scanNumber moves l.pos past the number that starts there (atNumber):
// digits with at most one '.', then at most one 'e' or 'E', an
// optional sign and the exponent's digits. In the same pass it returns
// the text's value as strconv.ParseFloat(text, 32) would, when it can
// tell that value exactly, and ok false when it cannot.
//
// The exact path is Clinger's: a mantissa of at most 19 digits and
// 2^53, times or over a power of ten of at most 22, is one correctly
// rounded float64 operation. Its magnitude, 0 or within [1e-22,
// 2^53·1e22], is inside float32's normal range, so rounding it to
// float32 gives the correctly rounded float32 unless the float64 is a
// float32 halfway point (its low 29 mantissa bits are 1<<28). That
// case, an exponent with no digits (not a number to ParseFloat) and
// everything past the limits — subnormal and overflowing values among
// them — are left to ParseFloat.
func (l *Lexer) scanNumber() (f float32, ok bool) {
	src, i := l.src, l.pos
	neg := src[i] == '-'
	if neg {
		i++
	}
	// The value is mant·10^exp over nd digits, the leading zeros among
	// them; past 19 mant may wrap, and ok is false.
	var mant uint64
	from := i
	for ; i < len(src) && isDigit(src[i]); i++ {
		mant = mant*10 + uint64(src[i]-'0')
	}
	nd, exp := i-from, 0
	if i < len(src) && src[i] == '.' {
		i++
		from = i
		for ; i < len(src) && isDigit(src[i]); i++ {
			mant = mant*10 + uint64(src[i]-'0')
		}
		exp = from - i
		nd -= exp
	}
	ok = nd <= 19 && mant <= 1<<53
	if i < len(src) && src[i]|0x20 == 'e' {
		i++
		eneg := i < len(src) && src[i] == '-'
		if eneg || i < len(src) && src[i] == '+' {
			i++
		}
		e, start := 0, i
		for ; i < len(src) && isDigit(src[i]); i++ {
			if e < 10000 { // capped far past ±22: a long exponent cannot overflow
				e = e*10 + int(src[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp += e
		ok = ok && i > start
	}
	l.pos = i
	if !ok {
		return 0, false
	}
	v := float64(mant)
	if mant != 0 {
		if exp < -22 || exp > 22 {
			return 0, false
		}
		if exp < 0 {
			v /= pow10[-exp]
		} else {
			v *= pow10[exp]
		}
		if math.Float64bits(v)&(1<<29-1) == 1<<28 {
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	return float32(v), true
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool  { return isIdentStart(r) || '0' <= r && r <= '9' }

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
