package sql

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The vector-literal scan must accept what a token-by-token parse
// accepts, give the values strconv.ParseFloat(text, 32) gives, bit for
// bit, and fail with a token-by-token parse's errors at its positions.

// TestVectorLiteralErrors pins the literal's whole surface: values and
// error messages as a parse with one token per element produced them.
func TestVectorLiteralErrors(t *testing.T) {
	for _, c := range []struct {
		src  string
		want []float32 // nil with err empty: the literal is []
		err  string
	}{
		{src: `INSERT INTO t VALUES ([1,,2])`, err: `sql: expected "]" at 25, got ","`},
		{src: `INSERT INTO t VALUES ([1.5.3])`, err: `sql: expected "]" at 26, got "."`},
		{src: `INSERT INTO t VALUES ([1e39])`, err: `sql: bad vector element "1e39"`},
		{src: `INSERT INTO t VALUES ([1 e5])`, err: `sql: expected "]" at 25, got "e5"`},
		{src: `INSERT INTO t VALUES ([-])`, err: `sql: unexpected character '-' at 23`},
		{src: `INSERT INTO t VALUES ([1,2`, err: `sql: expected "]" at 26, got ""`},
		{src: `INSERT INTO t VALUES ([1e, @])`, err: `sql: bad vector element "1e"`},
		{src: `INSERT INTO t VALUES ([1 @])`, err: `sql: unexpected character '@' at 25`},
		{src: `SELECT id FROM t ORDER BY L2Distance(v, [1,,2]) LIMIT 1`, err: `sql: expected "]" at 43, got ","`},
		{src: `SELECT id FROM t ORDER BY L2Distance(v, 3) LIMIT 1`, err: `sql: expected "[" at 40, got "3"`},
		{src: `INSERT INTO t VALUES ([])`},
		{src: `INSERT INTO t VALUES ([ 1 , 2 ])`, want: []float32{1, 2}},
		{src: `INSERT INTO t VALUES ([1 2 3])`, want: []float32{1, 2, 3}},
		{src: "INSERT INTO t VALUES ([1, -- c\n2])", want: []float32{1, 2}},
		{src: `INSERT INTO t VALUES ([-0, 1., 2e+1])`, want: []float32{float32(math.Copysign(0, -1)), 1, 20}},
		{src: `INSERT INTO t VALUES ([1e-50])`, want: []float32{0}},
	} {
		st, err := Parse(c.src)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("Parse(%q) = %v, want error %q", c.src, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		got := st.(*Insert).Rows[0][0].([]float32)
		if (got == nil) != (c.want == nil) || len(got) != len(c.want) {
			t.Errorf("Parse(%q) = %#v, want %#v", c.src, got, c.want)
			continue
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(c.want[i]) {
				t.Errorf("Parse(%q) = %#v, want %#v", c.src, got, c.want)
			}
		}
	}
}

// parseVector parses src as a lone vector literal.
func parseVector(src string) ([]float32, error) {
	p := &Parser{lex: NewLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p.vectorLiteral()
}

// checkElements parses the elements as one literal and compares each
// value with float32(strconv.ParseFloat(e, 32)), bit for bit. Every
// element must be one number token that ParseFloat accepts.
func checkElements(t *testing.T, elems []string) {
	t.Helper()
	got, err := parseVector("[" + strings.Join(elems, ", ") + "]")
	if err != nil || len(got) != len(elems) {
		t.Fatalf("%v parsed to %v, %v", elems, got, err)
	}
	for i, e := range elems {
		f, err := strconv.ParseFloat(e, 32)
		if err != nil {
			t.Fatalf("test bug: ParseFloat(%q): %v", e, err)
		}
		if want := float32(f); math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("element %q parsed to %v (%#x), ParseFloat gives %v (%#x)", e, got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
		}
	}
}

// formats is every rendering of x the vector-literal tests feed back:
// 'g', 'e' and 'f' at precisions -1 and 1-12, shortest for float32
// and for float64, dropping what the number grammar does not read
// (NaN, ±Inf) or ParseFloat rejects as out of range.
func formats(x float64) []string {
	var out []string
	for _, fmt := range []byte{'g', 'e', 'f'} {
		for prec := -1; prec <= 12; prec++ {
			if prec == 0 {
				continue
			}
			for _, bits := range []int{32, 64} {
				if bits == 32 && float64(float32(x)) != x {
					continue
				}
				s := strconv.FormatFloat(x, fmt, prec, bits)
				if _, err := strconv.ParseFloat(s, 32); err == nil && NewLexer(s).atNumber() {
					out = append(out, s)
				}
			}
		}
	}
	return out
}

// FuzzVectorLiteral: a text that lexes as one number parses as a
// vector element to float32(strconv.ParseFloat(text, 32)), or fails as
// a bad element exactly when ParseFloat fails; and every value reads
// back bit for bit from each of its 'g', 'e' and 'f' renderings.
func FuzzVectorLiteral(f *testing.F) {
	for _, s := range []string{
		"16777217", "16777217.0000001", "16777216.9999999", // a float32 halfway point and its neighbours
		"3.4028235e38", "3.4028236e38", // float32's largest finite value, and past it
		"1.1754942e-38", "1e-45", // float32's smallest normal, and subnormal
		// Decimals whose correctly rounded float64 is a float32 halfway
		// point they are not: float32 of that float64 is wrong.
		"2.749544946709648e-4", "0.07723983749747276", "2.004416842282808e-6",
		// Mantissas past 2^53 that a float64 multiply or divide would
		// round twice, onto the wrong side of a float32 halfway point.
		"124225.8398437500001", "373.18171691894532", "0.00024211526761064306",
		"-0", "0.1", "1e22", "1e23", "9007199254740993", "12345678901234567890123",
		"0.0000000000000000000000000001", "1e39", "1e", "2.5e-", "7.",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, e string) {
		toks, err := Tokenize(e)
		if err != nil || len(toks) != 1 || toks[0].Kind != TokNumber || toks[0].Text != e {
			return
		}
		got, err := parseVector("[" + e + "]")
		x, perr := strconv.ParseFloat(e, 32)
		if perr != nil {
			if err == nil || err.Error() != "sql: bad vector element "+strconv.Quote(e) {
				t.Fatalf("[%s] parsed to %v, %v; ParseFloat: %v", e, got, err, perr)
			}
			return
		}
		checkElements(t, []string{e})
		checkElements(t, formats(x))
		if x64, err := strconv.ParseFloat(e, 64); err == nil && !math.IsInf(x64, 0) {
			checkElements(t, formats(x64))
		}
	})
}

// TestVectorLiteralRandomValues runs what FuzzVectorLiteral checks
// over random float32 bit patterns and random float64s, so tier-1
// covers more than the fuzz seeds.
func TestVectorLiteralRandomValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		f32 := math.Float32frombits(rng.Uint32())
		if f := float64(f32); !math.IsNaN(f) && !math.IsInf(f, 0) {
			checkElements(t, formats(f))
		}
		checkElements(t, formats(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20))))
	}
}

// TestLexNonASCIIIdents: identifiers are runes, not bytes. A UTF-8
// continuation byte such as 0x85 or 0xA0 is not whitespace, and a
// lead byte does not start an identifier of its own.
func TestLexNonASCIIIdents(t *testing.T) {
	for src, want := range map[string][]string{
		"SELECT * FROM tàble": {"SELECT", "*", "FROM", "tàble"},
		"t\u01c5x":            {"t\u01c5x"}, // U+01C5 is C7 85
		"x\u00a0y":            {"x", "y"},   // NBSP, decoded, is whitespace
		"_été2 Ω":             {"_été2", "Ω"},
		"名前 = 1":              {"名前", "=", "1"},
	} {
		toks, err := Tokenize(src)
		if err != nil {
			t.Errorf("Tokenize(%q): %v", src, err)
			continue
		}
		var got []string
		for _, tk := range toks {
			got = append(got, tk.Text)
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("Tokenize(%q) = %q, want %q", src, got, want)
		}
	}
	if st, err := Parse("SELECT * FROM tàble"); err != nil || st.(*Select).Table != "tàble" {
		t.Errorf("Parse(SELECT * FROM tàble) = %+v, %v", st, err)
	}
	for _, bad := range []string{"x \x85", "\xa0", "t\xc3", "€"} {
		if _, err := Tokenize(bad); err == nil {
			t.Errorf("Tokenize(%q) succeeded", bad)
		}
	}
}

// insertSQL is an INSERT shaped like the standing benchmark's: rows of
// (id, ts[, payload], v) with v rendered shortest for float32.
func insertSQL(rows, dim int, payload bool) string {
	rng := rand.New(rand.NewSource(7))
	b := []byte("INSERT INTO bench VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '(')
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, 1700000000000+int64(i)*1000, 10)
		b = append(b, ',')
		if payload {
			b = append(b, "'payload-"...)
			b = append(b, strings.Repeat("x", 40)...)
			b = append(b, "',"...)
		}
		b = append(b, '[')
		for d := 0; d < dim; d++ {
			if d > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, float64(rng.Float32()*2-1), 'g', -1, 32)
		}
		b = append(b, "])"...)
	}
	return string(b)
}

// BenchmarkParseInsert parses benchmark-shaped INSERTs (128-d vectors
// and a string payload) of 8, 64 and 500 rows, serially and with the
// vectors converted on GOMAXPROCS workers: the numbers that set
// deferMinBytes. Run at -cpu 1,2.
func BenchmarkParseInsert(b *testing.B) {
	for _, rows := range []int{8, 64, 500} {
		src := insertSQL(rows, 128, true)
		for _, path := range []struct {
			name  string
			parse func(string) (Statement, error)
		}{
			{"serial", func(src string) (Statement, error) { return parse(src, nil) }},
			{"deferred", func(src string) (Statement, error) {
				if st, ok := parseDeferred(src); ok {
					return st, nil
				}
				return nil, errDeferred
			}},
		} {
			b.Run(fmt.Sprintf("rows=%d/%s", rows, path.name), func(b *testing.B) {
				b.SetBytes(int64(len(src)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := path.parse(src); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
