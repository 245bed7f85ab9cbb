package exec

import (
	"math"
	"testing"

	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
)

func predSchema() *storage.Schema {
	return &storage.Schema{Columns: []storage.ColumnDef{
		{Name: "i", Type: storage.Int64Type},
		{Name: "f", Type: storage.Float64Type},
		{Name: "s", Type: storage.StringType},
		{Name: "ts", Type: storage.DateTimeType},
	}}
}

func predData() map[string]*storage.ColumnData {
	mk := func(def storage.ColumnDef) *storage.ColumnData { return storage.NewColumnData(def) }
	i := mk(storage.ColumnDef{Name: "i", Type: storage.Int64Type})
	i.Ints = []int64{-5, 0, 7, 100}
	f := mk(storage.ColumnDef{Name: "f", Type: storage.Float64Type})
	f.Floats = []float64{-1.5, 0, 0.25, 99.9}
	s := mk(storage.ColumnDef{Name: "s", Type: storage.StringType})
	s.Strs = []string{"cat", "catalog", "dog", "Cat"}
	ts := mk(storage.ColumnDef{Name: "ts", Type: storage.DateTimeType})
	ts.Ints = []int64{10, 20, 30, 40}
	return map[string]*storage.ColumnData{"i": i, "f": f, "s": s, "ts": ts}
}

func evalAll(t *testing.T, p sql.Predicate) []bool {
	t.Helper()
	cp, err := compileOne(predSchema(), p)
	if err != nil {
		t.Fatalf("compile %+v: %v", p, err)
	}
	col := predData()[p.Column]
	out := make([]bool, col.Len())
	for r := range out {
		out[r] = cp.eval(col, r)
	}
	return out
}

func wantRows(t *testing.T, got []bool, want ...int) {
	t.Helper()
	wantSet := map[int]bool{}
	for _, w := range want {
		wantSet[w] = true
	}
	for r, g := range got {
		if g != wantSet[r] {
			t.Fatalf("row %d: got %v, want %v (all: %v)", r, g, wantSet[r], got)
		}
	}
}

func TestIntPredicates(t *testing.T) {
	wantRows(t, evalAll(t, sql.Predicate{Column: "i", Op: sql.OpEq, Value: int64(7)}), 2)
	wantRows(t, evalAll(t, sql.Predicate{Column: "i", Op: sql.OpNe, Value: int64(7)}), 0, 1, 3)
	wantRows(t, evalAll(t, sql.Predicate{Column: "i", Op: sql.OpLt, Value: int64(0)}), 0)
	wantRows(t, evalAll(t, sql.Predicate{Column: "i", Op: sql.OpLe, Value: int64(0)}), 0, 1)
	wantRows(t, evalAll(t, sql.Predicate{Column: "i", Op: sql.OpGt, Value: int64(7)}), 3)
	wantRows(t, evalAll(t, sql.Predicate{Column: "i", Op: sql.OpGe, Value: int64(7)}), 2, 3)
	wantRows(t, evalAll(t, sql.Predicate{Column: "i", Op: sql.OpBetween, Value: int64(0), Value2: int64(7)}), 1, 2)
	wantRows(t, evalAll(t, sql.Predicate{Column: "i", Op: sql.OpIn, Values: []any{int64(-5), int64(100)}}), 0, 3)
	// DateTime shares the integer path.
	wantRows(t, evalAll(t, sql.Predicate{Column: "ts", Op: sql.OpGe, Value: int64(30)}), 2, 3)
}

func TestFloatPredicates(t *testing.T) {
	wantRows(t, evalAll(t, sql.Predicate{Column: "f", Op: sql.OpLt, Value: 0.0}), 0)
	wantRows(t, evalAll(t, sql.Predicate{Column: "f", Op: sql.OpBetween, Value: 0.0, Value2: 1.0}), 1, 2)
	wantRows(t, evalAll(t, sql.Predicate{Column: "f", Op: sql.OpGe, Value: int64(0)}), 1, 2, 3) // int literal coerces
	wantRows(t, evalAll(t, sql.Predicate{Column: "f", Op: sql.OpEq, Value: 0.25}), 2)
	wantRows(t, evalAll(t, sql.Predicate{Column: "f", Op: sql.OpNe, Value: 0.25}), 0, 1, 3)
	wantRows(t, evalAll(t, sql.Predicate{Column: "f", Op: sql.OpIn, Values: []any{-1.5}}), 0)
}

func TestStringPredicates(t *testing.T) {
	wantRows(t, evalAll(t, sql.Predicate{Column: "s", Op: sql.OpEq, Value: "cat"}), 0)
	wantRows(t, evalAll(t, sql.Predicate{Column: "s", Op: sql.OpNe, Value: "cat"}), 1, 2, 3)
	wantRows(t, evalAll(t, sql.Predicate{Column: "s", Op: sql.OpIn, Values: []any{"dog", "Cat"}}), 2, 3)
	wantRows(t, evalAll(t, sql.Predicate{Column: "s", Op: sql.OpRegexp, Value: "^cat"}), 0, 1)
	wantRows(t, evalAll(t, sql.Predicate{Column: "s", Op: sql.OpRegexp, Value: "(?i)^cat$"}), 0, 3)
	// LIKE wildcards: % = .*, _ = .
	wantRows(t, evalAll(t, sql.Predicate{Column: "s", Op: sql.OpLike, Value: "cat%"}), 0, 1)
	wantRows(t, evalAll(t, sql.Predicate{Column: "s", Op: sql.OpLike, Value: "_at"}), 0, 3)
	wantRows(t, evalAll(t, sql.Predicate{Column: "s", Op: sql.OpLike, Value: "dog"}), 2)
}

func TestLikeToRegexpEscapesMeta(t *testing.T) {
	// Dots and brackets in LIKE patterns are literals, not regex.
	if got := likeToRegexp("a.b%"); got != `a\.b.*` {
		t.Fatalf("likeToRegexp = %q", got)
	}
	if got := likeToRegexp("x_[y]"); got != `x.\[y\]` {
		t.Fatalf("likeToRegexp = %q", got)
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []sql.Predicate{
		{Column: "nope", Op: sql.OpEq, Value: int64(1)},
		{Column: "i", Op: sql.OpRegexp, Value: "x"},     // regex on int
		{Column: "f", Op: sql.OpLike, Value: "x"},       // like on float
		{Column: "s", Op: sql.OpEq, Value: int64(1)},    // int literal for string
		{Column: "i", Op: sql.OpEq, Value: "x"},         // string literal for int
		{Column: "s", Op: sql.OpRegexp, Value: "["},     // bad regex
		{Column: "s", Op: sql.OpLt, Value: "x"},         // unsupported string op
		{Column: "i", Op: sql.OpIn, Values: []any{"x"}}, // bad IN element
		{Column: "f", Op: sql.OpBetween, Value: "a", Value2: "b"},
	}
	for _, p := range bad {
		if _, err := compileOne(predSchema(), p); err == nil {
			t.Errorf("compileOne(%+v) unexpectedly succeeded", p)
		}
	}
}

func TestPruningRangesExtracted(t *testing.T) {
	cp, err := compileOne(predSchema(), sql.Predicate{Column: "i", Op: sql.OpBetween, Value: int64(3), Value2: int64(9)})
	if err != nil {
		t.Fatal(err)
	}
	if cp.intRange == nil || cp.intRange[0] != 3 || cp.intRange[1] != 9 {
		t.Fatalf("intRange = %v", cp.intRange)
	}
	cp, err = compileOne(predSchema(), sql.Predicate{Column: "f", Op: sql.OpLe, Value: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if cp.floatRange == nil || cp.floatRange[1] != 2.5 {
		t.Fatalf("floatRange = %v", cp.floatRange)
	}
	cp, err = compileOne(predSchema(), sql.Predicate{Column: "s", Op: sql.OpEq, Value: "cat"})
	if err != nil {
		t.Fatal(err)
	}
	if cp.eqString == nil || *cp.eqString != "cat" {
		t.Fatalf("eqString = %v", cp.eqString)
	}
	// Inequality extracts no equality hint.
	cp, _ = compileOne(predSchema(), sql.Predicate{Column: "s", Op: sql.OpNe, Value: "cat"})
	if cp.eqString != nil {
		t.Fatal("OpNe must not produce a partition hint")
	}
}

// TestIntPredicateFloatLiterals: a float literal against an integer
// column admits exactly the values a float64 comparison does, for
// every operator, with the segment-pruning range holding every row the
// predicate passes (and none when nothing can pass).
func TestIntPredicateFloatLiterals(t *testing.T) {
	col := storage.NewColumnData(storage.ColumnDef{Name: "i", Type: storage.Int64Type})
	col.Ints = []int64{math.MinInt64, -3, -2, -1, 0, 1, 2, 3, math.MaxInt64}
	cmp := map[sql.PredOp]func(x, v float64) bool{
		sql.OpEq: func(x, v float64) bool { return x == v },
		sql.OpNe: func(x, v float64) bool { return x != v },
		sql.OpLt: func(x, v float64) bool { return x < v },
		sql.OpLe: func(x, v float64) bool { return x <= v },
		sql.OpGt: func(x, v float64) bool { return x > v },
		sql.OpGe: func(x, v float64) bool { return x >= v },
	}
	for _, v := range []float64{2.5, -2.5, 2.0, 1e30, -1e30} {
		cases := []struct {
			p    sql.Predicate
			want func(x float64) bool
		}{
			{sql.Predicate{Op: sql.OpIn, Values: []any{v, 3.0}}, func(x float64) bool { return x == v || x == 3 }},
			{sql.Predicate{Op: sql.OpBetween, Value: v, Value2: 3.0}, func(x float64) bool { return x >= v && x <= 3 }},
			{sql.Predicate{Op: sql.OpBetween, Value: -3.0, Value2: v}, func(x float64) bool { return x >= -3 && x <= v }},
		}
		for op, f := range cmp {
			cases = append(cases, struct {
				p    sql.Predicate
				want func(x float64) bool
			}{sql.Predicate{Op: op, Value: v}, func(x float64) bool { return f(x, v) }})
		}
		for _, tc := range cases {
			tc.p.Column = "i"
			cp, err := compileOne(predSchema(), tc.p)
			if err != nil {
				t.Fatalf("compile %+v: %v", tc.p, err)
			}
			for r, x := range col.Ints {
				got, want := cp.eval(col, r), tc.want(float64(x))
				if got != want {
					t.Errorf("%d %s %v (%v): got %v, want %v", x, tc.p.Op, tc.p.Value, tc.p.Value2, got, want)
				}
				if got && cp.intRange != nil && (x < cp.intRange[0] || x > cp.intRange[1]) {
					t.Errorf("%d passes %s %v but is outside its pruning range %v", x, tc.p.Op, tc.p.Value, *cp.intRange)
				}
			}
		}
	}
}
