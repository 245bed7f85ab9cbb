package plan

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/sql"
)

// Physical is the optimizer's output: the logical plan plus the chosen
// execution strategy and its cost estimate.
type Physical struct {
	Logical     *Logical
	Strategy    Strategy
	Selectivity float64
	EstCost     float64
	// ShortCircuited marks plans that took the fast path (Fig 17's
	// Query_Opt).
	ShortCircuited bool
	// FromCache marks plans materialized from the parameterized plan
	// cache.
	FromCache bool
}

// PlannerConfig toggles the optimizer features so benchmarks can
// ablate them (paper Figs 15 and 17).
type PlannerConfig struct {
	// DisableCBO forces the default strategy (pre-filter when scalar
	// predicates exist, else pure ANN) instead of cost-based choice.
	DisableCBO bool
	// ForceStrategy overrides everything when non-nil (experiment
	// hook).
	ForceStrategy *Strategy
	// DisablePlanCache turns off the parameterized plan cache.
	DisablePlanCache bool
	// DisableShortCircuit turns off the simple-query fast path.
	DisableShortCircuit bool
}

// Planner turns parsed SELECTs into physical plans. Safe for
// concurrent use.
type Planner struct {
	cfg PlannerConfig

	cache   sync.Map // fingerprint -> *cachedPlan
	hits    atomic.Int64
	misses  atomic.Int64
	shortcs atomic.Int64
}

// cachedPlan stores the structure-dependent parts of planning; the
// per-query parameters (vector, bounds, k) are re-bound on each use.
type cachedPlan struct {
	strategy    Strategy
	selectivity float64
	estCost     float64
}

// NewPlanner returns a planner with the given toggles.
func NewPlanner(cfg PlannerConfig) *Planner {
	return &Planner{cfg: cfg}
}

// Stats reports plan-cache hits/misses and short-circuit count.
func (pl *Planner) Stats() (hits, misses, shortCircuits int64) {
	return pl.hits.Load(), pl.misses.Load(), pl.shortcs.Load()
}

// Plan builds the physical plan for a SELECT against a table.
func (pl *Planner) Plan(sel *sql.Select, table *lsm.Table) (*Physical, error) {
	lg, err := BuildLogical(sel, table.Schema())
	if err != nil {
		return nil, err
	}
	if !lg.IsVectorQuery() {
		return &Physical{Logical: lg, Strategy: BruteForce, Selectivity: 1}, nil
	}

	// Short-circuit: structurally simple queries skip rule re-checking
	// and full plan enumeration (paper §IV-C).
	if !pl.cfg.DisableShortCircuit && isSimple(sel) {
		pl.shortcs.Add(1)
		ph := pl.decide(lg, table)
		ph.ShortCircuited = true
		return ph, nil
	}

	// Parameterized plan cache: identical query structure reuses the
	// strategy decision without re-estimating costs.
	if !pl.cfg.DisablePlanCache {
		fp := Fingerprint(sel)
		if v, ok := pl.cache.Load(fp); ok {
			pl.hits.Add(1)
			cp := v.(*cachedPlan)
			return &Physical{
				Logical: lg, Strategy: cp.strategy,
				Selectivity: cp.selectivity, EstCost: cp.estCost,
				FromCache: true,
			}, nil
		}
		pl.misses.Add(1)
		ph := pl.decide(lg, table)
		pl.cache.Store(fp, &cachedPlan{strategy: ph.Strategy, selectivity: ph.Selectivity, estCost: ph.EstCost})
		return ph, nil
	}
	return pl.decide(lg, table), nil
}

// decide runs the cost model (or the CBO-disabled default).
func (pl *Planner) decide(lg *Logical, table *lsm.Table) *Physical {
	s := Selectivity(table, lg.ScalarPreds)
	ph := &Physical{Logical: lg, Selectivity: s}
	if pl.cfg.ForceStrategy != nil {
		ph.Strategy = *pl.cfg.ForceStrategy
		return ph
	}
	if len(lg.ScalarPreds) == 0 {
		// Pure vector search: the index scan is the only sensible plan
		// (pre-filter with an all-ones bitmap degenerates to it).
		ph.Strategy = PreFilter
		return ph
	}
	if pl.cfg.DisableCBO {
		// The paper's CBO-off default is pre-filter (§V-B6).
		ph.Strategy = PreFilter
		return ph
	}
	strategy, cost := Choose(costInputs(lg, table, s), CostsFor(len(lg.Distance.Query)))
	ph.Strategy = strategy
	ph.EstCost = cost
	return ph
}

// costInputs summarizes a vector query against table, at estimated
// selectivity s, for the cost model.
func costInputs(lg *Logical, table *lsm.Table, s float64) CostInputs {
	n := table.Rows()
	opts := table.Options()
	graph := opts.IndexType == index.HNSW || opts.IndexType == index.HNSWSQ || opts.IndexType == index.DiskANN
	k := lg.K
	if k <= 0 {
		k = 100
	}
	ef := max(lg.Params.Ef, k)
	beta, gamma := VisitFractions(ef, lg.Params.Nprobe, opts.IndexParams.Nlist, n, graph)
	return CostInputs{N: n, S: s, K: k, Beta: beta, Gamma: gamma}
}

// CostBreakdown re-evaluates all three plan costs (Equations 1-3) for
// EXPLAIN output, on the inputs and constants decide chose by. ok is
// false for scalar-only queries, where the cost model never runs.
func (pl *Planner) CostBreakdown(lg *Logical, table *lsm.Table) (s, costA, costB, costC float64, ok bool) {
	if !lg.IsVectorQuery() {
		return 0, 0, 0, 0, false
	}
	s = Selectivity(table, lg.ScalarPreds)
	in, p := costInputs(lg, table, s), CostsFor(len(lg.Distance.Query))
	return s, CostA(in, p), CostB(in, p), CostC(in, p), true
}

// isSimple classifies queries eligible for the short-circuit path:
// one distance ORDER BY, a LIMIT, and at most two plain comparison
// predicates — the shape of repetitive production hybrid queries.
func isSimple(sel *sql.Select) bool {
	if sel.OrderBy == nil || sel.OrderBy.Distance == nil || sel.Limit <= 0 {
		return false
	}
	if len(sel.Where) > 2 {
		return false
	}
	for _, p := range sel.Where {
		if p.Distance != nil || p.Op == sql.OpIn || p.Op == sql.OpRegexp || p.Op == sql.OpLike {
			return false
		}
	}
	return true
}

// Fingerprint produces the parameterized structural key of a SELECT:
// literals, query vectors and LIMIT values are stripped; table,
// projection, predicate (column, op) pairs and the distance expression
// shape are kept — the "parameterized query plan representation" of
// paper §IV-C.
func Fingerprint(sel *sql.Select) string {
	var b strings.Builder
	b.WriteString(sel.Table)
	b.WriteByte('|')
	for _, c := range sel.Columns {
		if c.Star {
			b.WriteString("*,")
		} else {
			b.WriteString(c.Name)
			b.WriteByte(',')
		}
	}
	b.WriteByte('|')
	for _, p := range sel.Where {
		if p.Distance != nil {
			fmt.Fprintf(&b, "dist(%s,%s)%s;", p.Distance.Func, p.Distance.Column, p.Op)
			continue
		}
		fmt.Fprintf(&b, "%s%s;", p.Column, p.Op)
	}
	b.WriteByte('|')
	if sel.OrderBy != nil {
		if sel.OrderBy.Distance != nil {
			fmt.Fprintf(&b, "by:dist(%s,%s)", sel.OrderBy.Distance.Func, sel.OrderBy.Distance.Column)
		} else {
			fmt.Fprintf(&b, "by:%s desc=%v", sel.OrderBy.Column, sel.OrderBy.Desc)
		}
	}
	if sel.Limit > 0 {
		b.WriteString("|limit")
	}
	return b.String()
}
