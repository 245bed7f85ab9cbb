package sql

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// parseForced is Parse with the deferred path taken whatever the
// statement's size and GOMAXPROCS.
func parseForced(src string) (Statement, error) {
	if st, ok := parseDeferred(src); ok {
		return st, nil
	}
	return parse(src, nil)
}

// sameParse reports how two parses of one source differ: "" when both
// failed with the same error string, or both succeeded with deep-equal
// statements whose floats are bitwise equal.
func sameParse(st1 Statement, err1 error, st2 Statement, err2 error) string {
	if (err1 == nil) != (err2 == nil) {
		return "one parse failed and the other did not: " + errString(err1) + " / " + errString(err2)
	}
	if err1 != nil {
		if err1.Error() != err2.Error() {
			return "errors differ: " + err1.Error() + " / " + err2.Error()
		}
		return ""
	}
	if !reflect.DeepEqual(st1, st2) {
		return "statements differ"
	}
	ins1, ok := st1.(*Insert)
	if !ok {
		return ""
	}
	ins2 := st2.(*Insert)
	for i, row := range ins1.Rows {
		for j, v := range row {
			if !sameBits(v, ins2.Rows[i][j]) {
				return "row " + strconv.Itoa(i) + " column " + strconv.Itoa(j) + " differs bitwise"
			}
		}
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameBits compares two parsed values with floats bit for bit (so -0
// and 0 differ, where DeepEqual calls them equal).
func sameBits(a, b any) bool {
	switch x := a.(type) {
	case []float32:
		y, ok := b.([]float32)
		if !ok || (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
				return false
			}
		}
		return true
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return reflect.DeepEqual(a, b)
}

// bigInsert builds an INSERT of deferMinBytes or more from row(i), the
// text of row i without its parentheses.
func bigInsert(row func(i int) string) string {
	var b strings.Builder
	b.WriteString("INSERT INTO t VALUES ")
	for i := 0; b.Len() < deferMinBytes; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('(')
		b.WriteString(row(i))
		b.WriteByte(')')
	}
	return b.String()
}

// renderVector writes dim random float32s in a random mix of 'g', 'e'
// and 'f' renderings, negatives and exponents among them.
func renderVector(rng *rand.Rand, dim int, sep string) string {
	elems := make([]string, dim)
	for d := range elems {
		x := float64(float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(16)-8))))
		format := []byte{'g', 'e', 'f'}[rng.Intn(3)]
		prec := rng.Intn(10) - 1
		if prec == 0 || format == 'f' && prec == -1 && math.Abs(x) < 1e-6 {
			prec = 9
		}
		elems[d] = strconv.FormatFloat(x, format, prec, 32)
	}
	return "[" + strings.Join(elems, sep) + "]"
}

// TestDeferredParseMatchesSerial: an INSERT of 64 KiB or more parses
// with its vectors converted on workers to the rows, bitwise, or the
// error string of the serial parse; the valid cases take the deferred
// path, and those the skip cannot vouch for fall back.
func TestDeferredParseMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	bad := 50 + rng.Intn(200) // the row a malformed case breaks
	cases := []struct {
		name     string
		src      string
		deferred bool // parseDeferred vouches for the result
	}{
		{"renderings", bigInsert(func(i int) string {
			return strconv.Itoa(i) + ", -" + strconv.Itoa(i) + ".5e-3, 'p', " + renderVector(rng, 16, ",")
		}), true},
		{"spaces and empty lists", bigInsert(func(i int) string {
			if i%7 == 3 {
				return strconv.Itoa(i) + ", [], [ ]"
			}
			return strconv.Itoa(i) + ", " + renderVector(rng, 8, " ") + ", [ 1 ,2 , -3 ]"
		}), true},
		{"string holding brackets after a vector", bigInsert(func(i int) string {
			return renderVector(rng, 8, ", ") + ", 'a]b[c', '[x]'"
		}), true},
		{"comment holding ] inside a vector", bigInsert(func(i int) string {
			if i == bad {
				return "[1, 2 -- ] not the end\n, 3]"
			}
			return renderVector(rng, 8, ",")
		}), false},
		{"unterminated vector", bigInsert(func(i int) string {
			return renderVector(rng, 8, ",")
		}) + ", ([1, 2, 3", false},
		{"unterminated vector before a string holding ]", bigInsert(func(i int) string {
			if i == bad {
				return "[1, 2, 'x]'"
			}
			return renderVector(rng, 8, ",")
		}), false},
		{"malformed element", bigInsert(func(i int) string {
			if i == bad {
				return "[1, 2e, 3]"
			}
			return renderVector(rng, 8, ",")
		}), false},
		{"element out of range", bigInsert(func(i int) string {
			if i == bad {
				return "[1, 1e39, 3]"
			}
			return renderVector(rng, 8, ",")
		}), false},
		{"double comma", bigInsert(func(i int) string {
			if i == bad {
				return "[1,,3]"
			}
			return renderVector(rng, 8, ",")
		}), false},
	}
	for _, c := range cases {
		if len(c.src) < deferMinBytes {
			t.Fatalf("%s: %d bytes, under the threshold", c.name, len(c.src))
		}
		serial, serr := parse(c.src, nil)
		if _, ok := parseDeferred(c.src); ok != c.deferred {
			t.Errorf("%s: parseDeferred vouched %v, want %v", c.name, ok, c.deferred)
		}
		if c.deferred && serr != nil {
			t.Errorf("%s: the serial parse failed: %v", c.name, serr)
		}
		if !c.deferred && c.name != "comment holding ] inside a vector" && serr == nil {
			t.Errorf("%s: the serial parse succeeded", c.name)
		}
		st, err := parseForced(c.src)
		if diff := sameParse(serial, serr, st, err); diff != "" {
			t.Errorf("%s: %s", c.name, diff)
		}
		st, err = Parse(c.src)
		if diff := sameParse(serial, serr, st, err); diff != "" {
			t.Errorf("%s: Parse: %s", c.name, diff)
		}
	}
}

// TestDeferralOnlyInInsertValues: a SELECT past the threshold queues
// nothing — its query vector converts in the pass.
func TestDeferralOnlyInInsertValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := "SELECT id FROM t ORDER BY L2Distance(v, " + renderVector(rng, 8000, ", ") + ") LIMIT 3"
	if len(src) < deferMinBytes {
		t.Fatalf("%d bytes, under the threshold", len(src))
	}
	d := &deferral{src: src}
	st, err := parse(src, d)
	if !d.wait() || err != nil || len(d.jobs) != 0 {
		t.Fatalf("parse = %v, %v with %d literals deferred", st, err, len(d.jobs))
	}
	serial, serr := parse(src, nil)
	if diff := sameParse(serial, serr, st, err); diff != "" {
		t.Fatal(diff)
	}
}
