package sql

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// FuzzParse: every input parses to a statement or an error — never a
// panic, never both or neither — in bounded time, and every identifier
// the lexer reads is valid UTF-8. Padded past deferMinBytes, it parses
// with the vectors deferred to the serial parse's statement, bitwise,
// or its error string (sameParse). The seeds are every
// string literal in this package's other tests (every statement they
// parse among them) and one statement of each shape the benchmark
// sends.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		f.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if name == "fuzz_test.go" {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					f.Add(s)
				}
			}
			return true
		})
	}
	for _, s := range []string{
		"CREATE TABLE bench (id UInt64, ts Int64, payload String, v Array(Float32), INDEX ann v TYPE HNSW('DIM=4')) ORDER BY id",
		"INSERT INTO bench VALUES (0,1700000000000,'payload-00000000-xxxx',[0.1,-0.25,3e-05,1]),(1,7,'p',[1,2,3,4])",
		"SELECT id, ts, d FROM bench WHERE ts BETWEEN 1700000000000 AND 1700000999000 ORDER BY L2Distance(v, [0.5,0.25,-1,2]) AS d LIMIT 10",
		"SELECT id, cls, d FROM bench WHERE cls < 50 ORDER BY L2Distance(v, [0.5,0.25,-1,2]) AS d LIMIT 10",
		"DELETE FROM bench WHERE id IN (17,4,99)",
		"SELECT * FROM tàble",
		"SELECT id FROM t\u01c5x WHERE \u00a0x = 1",
		"SELECT id FROM t\xc3 WHERE x\x85 = 1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		start := time.Now()
		st, err := Parse(src)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Parse took %v on %d bytes", d, len(src))
		}
		if (st == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want a statement or an error", src, st, err)
		}
		if !identsValid(src) {
			t.Fatalf("Tokenize(%q) read an identifier that is not valid UTF-8", src)
		}
		padded := src + strings.Repeat(" ", max(0, deferMinBytes-len(src)))
		serial, serr := parse(padded, nil)
		st, err = parseForced(padded)
		if diff := sameParse(serial, serr, st, err); diff != "" {
			t.Fatalf("%q padded past the deferral threshold: %s", src, diff)
		}
	})
}

// identsValid reports whether every identifier the lexer reads from
// src, up to its first error, is valid UTF-8.
func identsValid(src string) bool {
	l := NewLexer(src)
	for {
		tk, err := l.Next()
		if err != nil || tk.Kind == TokEOF {
			return true
		}
		if tk.Kind == TokIdent && !utf8.ValidString(tk.Text) {
			return false
		}
	}
}
