// Package plan implements hybrid query planning for BlendHouse
// (paper §II-C and §IV-A): detection of the vector-search pattern in a
// parsed SELECT, rule-based rewrites (distance top-k pushdown,
// distance range-filter pushdown, vector column pruning), the
// accuracy-aware cost model of Equations 1–3 choosing among plan A
// (brute force), plan B (pre-filter) and plan C (post-filter), a
// parameterized plan cache, and the short-circuit fast path for
// simple repetitive hybrid queries.
package plan

import (
	"fmt"
	"math"
	"strings"

	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

// Strategy is the physical execution strategy (paper Figure 8).
type Strategy int

// The three physical plans of §IV-A.
const (
	BruteForce Strategy = iota // plan A: filter, then exact distances
	PreFilter                  // plan B: filter → bitset → ANN bitmap scan
	PostFilter                 // plan C: ANN iterator → filter, iterate until k
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case BruteForce:
		return "brute-force"
	case PreFilter:
		return "pre-filter"
	case PostFilter:
		return "post-filter"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Logical is the extracted hybrid-query plan.
type Logical struct {
	Table      string
	Projection []string // output columns in order (aliases included)
	Star       bool

	// ScalarPreds are the non-vector conjuncts.
	ScalarPreds []sql.Predicate
	// Distance is the ANN target (nil = scalar-only query).
	Distance *sql.DistanceExpr
	Metric   vec.Metric
	// DistAlias is the output name of the distance value ("" = not
	// projected).
	DistAlias string
	// Range holds a pushed-down distance range constraint (WHERE
	// L2Distance(...) < r).
	Range *RangeConstraint
	// K is the LIMIT (0 = unlimited).
	K int
	// OrderColumn is a scalar ORDER BY column ("" when ordering by
	// distance); Desc applies to it.
	OrderColumn string
	Desc        bool

	// Search parameters from SETTINGS.
	Params index.SearchParams

	// Rule annotations.
	TopKPushdown  bool     // partial top-k pushed below the merge (always on for ANN queries)
	RangePushdown bool     // distance range pushed into the index scan
	NeededColumns []string // columns actually read (vector column pruned unless projected)
	VectorColumn  string
	VectorPruned  bool // vector column dropped from output fetch
}

// RangeConstraint is a distance range filter.
type RangeConstraint struct {
	Radius    float32
	Inclusive bool
}

// BuildLogical extracts the hybrid pattern from a parsed SELECT
// against the table's schema and applies the rule-based rewrites.
func BuildLogical(sel *sql.Select, schema *storage.Schema) (*Logical, error) {
	lg := &Logical{Table: sel.Table, K: sel.Limit}
	for _, it := range sel.Columns {
		if it.Star {
			lg.Star = true
			continue
		}
		lg.Projection = append(lg.Projection, it.Name)
	}
	if sel.OrderBy != nil {
		if sel.OrderBy.Distance != nil {
			lg.Distance = sel.OrderBy.Distance
			lg.DistAlias = sel.OrderBy.Alias
			m, err := vec.ParseMetric(sel.OrderBy.Distance.Func)
			if err != nil {
				return nil, err
			}
			lg.Metric = m
		} else {
			lg.OrderColumn = sel.OrderBy.Column
			lg.Desc = sel.OrderBy.Desc
		}
	}
	for _, p := range sel.Where {
		if p.Distance != nil {
			// Distance range filter pushdown: becomes a range
			// constraint on the ANN scan instead of a post-hoc filter.
			r, ok := toFloat(p.Value)
			if !ok {
				return nil, fmt.Errorf("plan: distance range bound must be numeric")
			}
			if lg.Distance == nil {
				lg.Distance = p.Distance
				m, err := vec.ParseMetric(p.Distance.Func)
				if err != nil {
					return nil, err
				}
				lg.Metric = m
			} else if !sameDistance(lg.Distance, p.Distance) {
				return nil, fmt.Errorf("plan: WHERE and ORDER BY use different distance expressions")
			}
			lg.Range = &RangeConstraint{Radius: float32(r), Inclusive: p.Op == sql.OpLe}
			lg.RangePushdown = true
			continue
		}
		if i, _ := schema.Col(p.Column); i < 0 {
			return nil, fmt.Errorf("plan: unknown column %q in WHERE", p.Column)
		}
		lg.ScalarPreds = append(lg.ScalarPreds, p)
	}
	if lg.Distance != nil {
		ci, def := schema.Col(lg.Distance.Column)
		if ci < 0 || def.Type != storage.VectorType {
			return nil, fmt.Errorf("plan: distance over non-vector column %q", lg.Distance.Column)
		}
		if len(lg.Distance.Query) != def.Dim {
			return nil, fmt.Errorf("plan: query vector dim %d != column dim %d", len(lg.Distance.Query), def.Dim)
		}
		lg.VectorColumn = lg.Distance.Column
		lg.TopKPushdown = lg.K > 0
	}
	// Validate projection and compute needed columns with vector
	// column pruning: the embedding itself is fetched only when the
	// user projects it (distance values come from the index).
	lg.Params = index.SearchParams{
		Ef:           sel.Settings["ef_search"],
		Nprobe:       sel.Settings["nprobe"],
		RefineFactor: sel.Settings["refine"],
	}
	needed := map[string]bool{}
	addNeeded := func(c string) { needed[c] = true }
	if lg.Star {
		for _, c := range schema.Columns {
			addNeeded(c.Name)
		}
	}
	for _, c := range lg.Projection {
		if c == lg.DistAlias && lg.DistAlias != "" {
			continue
		}
		if i, _ := schema.Col(c); i < 0 {
			return nil, fmt.Errorf("plan: unknown column %q in SELECT", c)
		}
		addNeeded(c)
	}
	for _, p := range lg.ScalarPreds {
		addNeeded(p.Column)
	}
	if lg.OrderColumn != "" {
		if i, _ := schema.Col(lg.OrderColumn); i < 0 {
			return nil, fmt.Errorf("plan: unknown ORDER BY column %q", lg.OrderColumn)
		}
		addNeeded(lg.OrderColumn)
	}
	if lg.VectorColumn != "" && !needed[lg.VectorColumn] {
		lg.VectorPruned = true
	}
	for _, c := range schema.Columns {
		if needed[c.Name] {
			lg.NeededColumns = append(lg.NeededColumns, c.Name)
		}
	}
	return lg, nil
}

func sameDistance(a, b *sql.DistanceExpr) bool {
	if !strings.EqualFold(a.Func, b.Func) || a.Column != b.Column || len(a.Query) != len(b.Query) {
		return false
	}
	for i := range a.Query {
		if a.Query[i] != b.Query[i] {
			return false
		}
	}
	return true
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	default:
		return 0, false
	}
}

// IsVectorQuery reports whether the plan contains an ANN scan.
func (lg *Logical) IsVectorQuery() bool { return lg.Distance != nil }

// Selectivity estimates the combined selectivity of the scalar
// predicates using the table's histograms (independence assumed, the
// standard textbook simplification; string equality uses a fixed
// guess).
func Selectivity(t *lsm.Table, preds []sql.Predicate) float64 {
	s := 1.0
	for _, p := range preds {
		s *= predicateSelectivity(t, p)
	}
	if s < 1e-9 {
		s = 1e-9
	}
	return s
}

func predicateSelectivity(t *lsm.Table, p sql.Predicate) float64 {
	ci, def := t.Schema().Col(p.Column)
	if ci < 0 {
		return 1
	}
	switch def.Type {
	case storage.Int64Type, storage.DateTimeType:
		lo, hi, ok, _ := IntBounds(p)
		if !ok {
			return 0
		}
		return t.EstimateIntSelectivity(p.Column, lo, hi)
	case storage.Float64Type:
		lo, hi := floatBounds(p)
		return t.EstimateFloatSelectivity(p.Column, lo, hi)
	case storage.StringType:
		switch p.Op {
		case sql.OpEq:
			return 0.1 // no string histograms; assume 10 distinct values
		case sql.OpNe:
			return 0.9
		case sql.OpRegexp, sql.OpLike:
			return 0.25
		case sql.OpIn:
			return math.Min(1, 0.1*float64(len(p.Values)))
		}
	}
	return 1
}

func floatBounds(p sql.Predicate) (float64, float64) {
	v, _ := toFloat(p.Value)
	switch p.Op {
	case sql.OpEq:
		return v, v
	case sql.OpLt, sql.OpLe:
		return math.Inf(-1), v
	case sql.OpGt, sql.OpGe:
		return v, math.Inf(1)
	case sql.OpBetween:
		v2, _ := toFloat(p.Value2)
		return v, v2
	default:
		return math.Inf(-1), math.Inf(1)
	}
}

// IntBounds maps a predicate on an integer column to the closed
// interval [lo, hi] of the int64 values it admits, exactly those for
// which comparing the value with the literal as float64 holds: a lower
// bound rounds up, an upper bound rounds down, and a literal beyond
// the int64 range clamps to it. ok is false when no value qualifies (a
// fractional =, an empty BETWEEN, a bound past the range). An operator
// without an interval (!=, IN, ...) yields the whole range; callers
// pass IN members and a != literal one at a time as =.
func IntBounds(p sql.Predicate) (lo, hi int64, ok bool, err error) {
	lo, hi = math.MinInt64, math.MaxInt64
	okLo, okHi := true, true
	switch p.Op {
	case sql.OpEq:
		if lo, okLo, err = intBound(p.Value, true, false); err == nil {
			hi, okHi, err = intBound(p.Value, false, false)
		}
	case sql.OpLt, sql.OpLe:
		hi, okHi, err = intBound(p.Value, false, p.Op == sql.OpLt)
	case sql.OpGt, sql.OpGe:
		lo, okLo, err = intBound(p.Value, true, p.Op == sql.OpGt)
	case sql.OpBetween:
		if lo, okLo, err = intBound(p.Value, true, false); err == nil {
			hi, okHi, err = intBound(p.Value2, false, false)
		}
	}
	return lo, hi, err == nil && okLo && okHi && lo <= hi, err
}

// intBound is the least int64 >= v (> v when strict) for a lower
// bound, else the greatest int64 <= v (< v when strict); ok is false
// when there is none (NaN, or v past the end of the range it bounds).
func intBound(v any, lower, strict bool) (int64, bool, error) {
	switch x := v.(type) {
	case int64:
		if !strict {
			return x, true, nil
		} else if lower {
			return x + 1, x != math.MaxInt64, nil
		}
		return x - 1, x != math.MinInt64, nil
	case float64:
		const limit = 1 << 63 // -limit is MinInt64, limit is one past MaxInt64
		if lower {
			c := math.Ceil(x)
			switch {
			case !(c < limit):
				return 0, false, nil // NaN, or above every int64
			case c < -limit:
				return math.MinInt64, true, nil
			case strict && c == x:
				return int64(c) + 1, true, nil // c < limit - 1 024: no overflow
			}
			return int64(c), true, nil
		}
		f := math.Floor(x)
		switch {
		case !(f >= -limit), strict && x == -limit:
			return 0, false, nil // NaN, or below every int64
		case f >= limit:
			return math.MaxInt64, true, nil
		case strict && f == x:
			return int64(f) - 1, true, nil
		}
		return int64(f), true, nil
	}
	return 0, false, fmt.Errorf("expected integer literal, got %T", v)
}
