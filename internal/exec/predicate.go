// Package exec implements physical query execution for BlendHouse:
// the three hybrid strategies of paper Figure 8 (brute force,
// pre-filter with a bitset ANN scan, post-filter with an incremental
// search iterator), scalar-only scans, distance range search,
// scheduler-level segment pruning with adaptive widening, and the
// final fetch/merge that assembles result rows through the adaptive
// column cache.
package exec

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"blendhouse/internal/plan"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
)

// compiledPred is a predicate specialized for a column type, ready for
// tight row loops.
type compiledPred struct {
	col  string
	eval func(c *storage.ColumnData, row int) bool

	// Range projections for segment pruning (nil when the predicate
	// doesn't constrain that domain).
	intRange   *[2]int64
	floatRange *[2]float64
	// eqString holds the value of an equality predicate on a string
	// column — used for partition pruning and to spot two equalities
	// no row can meet.
	eqString *string
}

// compilePredicates type-checks and compiles the scalar conjuncts.
// Failures (unknown column, type mismatch) are the statement's fault,
// not the engine's, so they are tagged ErrInvalidQuery for callers
// that map errors onto a user/server fault split.
func compilePredicates(schema *storage.Schema, preds []sql.Predicate) ([]compiledPred, error) {
	out := make([]compiledPred, 0, len(preds))
	for _, p := range preds {
		cp, err := compileOne(schema, p)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidQuery, err)
		}
		out = append(out, *cp)
	}
	return out, nil
}

func compileOne(schema *storage.Schema, p sql.Predicate) (*compiledPred, error) {
	ci, def := schema.Col(p.Column)
	if ci < 0 {
		return nil, fmt.Errorf("exec: unknown column %q", p.Column)
	}
	cp := &compiledPred{col: p.Column}
	switch def.Type {
	case storage.Int64Type, storage.DateTimeType:
		return compileInt(cp, p)
	case storage.Float64Type:
		return compileFloat(cp, p)
	case storage.StringType:
		return compileString(cp, p)
	default:
		return nil, fmt.Errorf("exec: predicates on column type %s unsupported", def.Type)
	}
}

func asFloat(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case int64:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("exec: expected numeric literal, got %T", v)
	}
}

// compileInt compiles a predicate on an integer column through
// plan.IntBounds, so a float literal admits exactly the values a
// float64 comparison does: a fractional = or IN member matches no row,
// a fractional != every row, and a range rounds inward.
func compileInt(cp *compiledPred, p sql.Predicate) (*compiledPred, error) {
	switch p.Op {
	case sql.OpIn:
		set := map[int64]bool{}
		for _, v := range p.Values {
			n, _, ok, err := plan.IntBounds(sql.Predicate{Op: sql.OpEq, Value: v})
			if err != nil {
				return nil, fmt.Errorf("exec: %w", err)
			}
			if ok {
				set[n] = true
			}
		}
		cp.eval = func(c *storage.ColumnData, row int) bool { return set[c.Ints[row]] }
	case sql.OpNe:
		v, _, ok, err := plan.IntBounds(sql.Predicate{Op: sql.OpEq, Value: p.Value})
		if err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		cp.eval = func(c *storage.ColumnData, row int) bool { return !ok || c.Ints[row] != v }
	case sql.OpEq, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe, sql.OpBetween:
		lo, hi, ok, err := plan.IntBounds(p)
		if err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
		if !ok {
			lo, hi = math.MaxInt64, math.MinInt64 // empty: no row passes, every segment prunes
		}
		cp.intRange = &[2]int64{lo, hi}
		cp.eval = func(c *storage.ColumnData, row int) bool { v := c.Ints[row]; return v >= lo && v <= hi }
	case sql.OpRegexp, sql.OpLike:
		return nil, fmt.Errorf("exec: %s unsupported on integer column %q", p.Op, p.Column)
	default:
		return nil, fmt.Errorf("exec: operator %s unsupported on integers", p.Op)
	}
	return cp, nil
}

func compileFloat(cp *compiledPred, p sql.Predicate) (*compiledPred, error) {
	switch p.Op {
	case sql.OpIn:
		set := map[float64]bool{}
		for _, v := range p.Values {
			f, err := asFloat(v)
			if err != nil {
				return nil, err
			}
			set[f] = true
		}
		cp.eval = func(c *storage.ColumnData, row int) bool { return set[c.Floats[row]] }
		return cp, nil
	case sql.OpBetween:
		lo, err := asFloat(p.Value)
		if err != nil {
			return nil, err
		}
		hi, err := asFloat(p.Value2)
		if err != nil {
			return nil, err
		}
		cp.floatRange = &[2]float64{lo, hi}
		cp.eval = func(c *storage.ColumnData, row int) bool { v := c.Floats[row]; return v >= lo && v <= hi }
		return cp, nil
	case sql.OpRegexp, sql.OpLike:
		return nil, fmt.Errorf("exec: %s unsupported on float column %q", p.Op, p.Column)
	}
	v, err := asFloat(p.Value)
	if err != nil {
		return nil, err
	}
	switch p.Op {
	case sql.OpEq:
		cp.floatRange = &[2]float64{v, v}
		cp.eval = func(c *storage.ColumnData, row int) bool { return c.Floats[row] == v }
	case sql.OpNe:
		cp.eval = func(c *storage.ColumnData, row int) bool { return c.Floats[row] != v }
	case sql.OpLt:
		cp.floatRange = &[2]float64{math.Inf(-1), v}
		cp.eval = func(c *storage.ColumnData, row int) bool { return c.Floats[row] < v }
	case sql.OpLe:
		cp.floatRange = &[2]float64{math.Inf(-1), v}
		cp.eval = func(c *storage.ColumnData, row int) bool { return c.Floats[row] <= v }
	case sql.OpGt:
		cp.floatRange = &[2]float64{v, math.Inf(1)}
		cp.eval = func(c *storage.ColumnData, row int) bool { return c.Floats[row] > v }
	case sql.OpGe:
		cp.floatRange = &[2]float64{v, math.Inf(1)}
		cp.eval = func(c *storage.ColumnData, row int) bool { return c.Floats[row] >= v }
	default:
		return nil, fmt.Errorf("exec: operator %s unsupported on floats", p.Op)
	}
	return cp, nil
}

func compileString(cp *compiledPred, p sql.Predicate) (*compiledPred, error) {
	switch p.Op {
	case sql.OpEq:
		v, ok := p.Value.(string)
		if !ok {
			return nil, fmt.Errorf("exec: string equality needs a string literal")
		}
		cp.eqString = &v
		cp.eval = func(c *storage.ColumnData, row int) bool { return c.Strs[row] == v }
	case sql.OpNe:
		v, ok := p.Value.(string)
		if !ok {
			return nil, fmt.Errorf("exec: string inequality needs a string literal")
		}
		cp.eval = func(c *storage.ColumnData, row int) bool { return c.Strs[row] != v }
	case sql.OpIn:
		set := map[string]bool{}
		for _, v := range p.Values {
			s, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("exec: IN over string column needs string literals")
			}
			set[s] = true
		}
		cp.eval = func(c *storage.ColumnData, row int) bool { return set[c.Strs[row]] }
	case sql.OpRegexp:
		pat, ok := p.Value.(string)
		if !ok {
			return nil, fmt.Errorf("exec: REGEXP needs a string pattern")
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return nil, fmt.Errorf("exec: bad regexp %q: %w", pat, err)
		}
		cp.eval = func(c *storage.ColumnData, row int) bool { return re.MatchString(c.Strs[row]) }
	case sql.OpLike:
		pat, ok := p.Value.(string)
		if !ok {
			return nil, fmt.Errorf("exec: LIKE needs a string pattern")
		}
		re, err := regexp.Compile("^" + likeToRegexp(pat) + "$")
		if err != nil {
			return nil, fmt.Errorf("exec: bad LIKE pattern %q: %w", pat, err)
		}
		cp.eval = func(c *storage.ColumnData, row int) bool { return re.MatchString(c.Strs[row]) }
	default:
		return nil, fmt.Errorf("exec: operator %s unsupported on strings", p.Op)
	}
	return cp, nil
}

// likeToRegexp translates SQL LIKE wildcards (% and _) to a regexp.
func likeToRegexp(pat string) string {
	var b strings.Builder
	for _, r := range pat {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	return b.String()
}
