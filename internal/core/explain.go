package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"blendhouse/internal/exec"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
)

// planLetter maps strategies onto the paper's plan letters (§IV-A).
func planLetter(s plan.Strategy) string {
	switch s {
	case plan.BruteForce:
		return "A"
	case plan.PreFilter:
		return "B"
	case plan.PostFilter:
		return "C"
	default:
		return "?"
	}
}

// explain handles EXPLAIN and EXPLAIN ANALYZE: it plans the wrapped
// SELECT and prints the optimizer's choice with its cost breakdown;
// ANALYZE additionally executes the query with a trace attached and
// appends the recorded span tree and per-query cache tallies.
func (e *Engine) explain(ctx context.Context, ex *sql.Explain, opts QueryOptions) (*exec.Result, error) {
	t := e.Table(ex.Query.Table)
	if t == nil {
		return nil, unknownTableErr(ex.Query.Table)
	}
	ph, err := e.planner.Plan(ex.Query, t)
	if err != nil {
		return nil, planErr(err)
	}
	lines := e.planLines(ph, opts.MaxParallelism)
	if ex.Analyze {
		tr := obs.NewTrace("query")
		start := obs.Now()
		res, err := e.runTraced(obs.WithTrace(ctx, tr), ex.Query.Table, ph, opts)
		if err != nil {
			return nil, err
		}
		tr.Finish()
		lines = append(lines, "")
		lines = append(lines, fmt.Sprintf("executed: %d rows in %.3fms", len(res.Rows),
			float64(time.Since(start).Microseconds())/1000))
		lines = append(lines, tr.Lines()...)
	}
	out := &exec.Result{Columns: []string{"explain"}}
	for _, l := range lines {
		out.Rows = append(out.Rows, []any{l})
	}
	return out, nil
}

// planLines renders the optimizer decision for one physical plan.
// maxPar is the per-statement parallelism override (0 = default).
func (e *Engine) planLines(ph *plan.Physical, maxPar int) []string {
	lg := ph.Logical
	t := e.Table(lg.Table)
	var lines []string
	if !lg.IsVectorQuery() {
		lines = append(lines, "plan: scalar scan")
	} else {
		lines = append(lines, fmt.Sprintf("plan: %s (%s)", planLetter(ph.Strategy), ph.Strategy))
	}
	segs := t.Segments()
	lines = append(lines, fmt.Sprintf("table: %s (%d segments%s, %d rows)", lg.Table, len(segs), segmentKinds(segs), t.Rows()))
	if s, a, b, c, ok := e.planner.CostBreakdown(lg, t); ok {
		lines = append(lines, fmt.Sprintf("selectivity: %.4g", s))
		if ph.EstCost > 0 {
			lines = append(lines, fmt.Sprintf("est_cost: A=%.3gs B=%.3gs C=%.3gs -> chose %s",
				a, b, c, planLetter(ph.Strategy)))
		}
	}
	switch {
	case ph.ShortCircuited:
		lines = append(lines, "optimizer: short-circuited (simple query fast path)")
	case ph.FromCache:
		lines = append(lines, "optimizer: plan cache hit (parameterized)")
	}
	if ex := e.Executor(lg.Table); ex != nil {
		if ex.SemanticFraction > 0 && lg.IsVectorQuery() {
			lines = append(lines, fmt.Sprintf("semantic pruning: fraction=%.4g min_segments=%d (adaptive widening on shortfall)",
				ex.SemanticFraction, exec.MinSegments))
		}
		lines = append(lines, fmt.Sprintf("parallelism: %d (per-segment worker pool)", ex.Parallelism(maxPar)))
	}
	return lines
}

// segmentKinds counts segments by the index type each was built with,
// as ": 12 flat, 4 hnsw"; empty when no segment has an index. Under
// auto-index a small segment is an exact flat scan.
func segmentKinds(segs []*storage.SegmentMeta) string {
	counts := map[string]int{}
	for _, m := range segs {
		if m.IndexType != "" {
			counts[strings.ToLower(m.IndexType)]++
		}
	}
	if len(counts) == 0 {
		return ""
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for i, k := range kinds {
		kinds[i] = fmt.Sprintf("%d %s", counts[k], k)
	}
	return ": " + strings.Join(kinds, ", ")
}

// showMetrics renders the process-wide registry as a two-column
// result: SHOW METRICS. The engine's own stat gauges replace the
// registry's, which read the newest open engine.
func (e *Engine) showMetrics() *exec.Result {
	res := &exec.Result{Columns: []string{"metric", "value"}}
	for _, kv := range obs.Default().Snapshot() {
		if fn := e.gauges[kv.Key]; fn != nil {
			kv.Value = fn()
		}
		res.Rows = append(res.Rows, []any{kv.Key, kv.Value})
	}
	return res
}

// ShowTraces lists the trace ring (newest first): one row per retained
// finished statement, with /debug/traces holding the full span dumps.
// It answers SHOW TRACES.
func showTraces() *exec.Result {
	res := &exec.Result{Columns: []string{"trace_id", "start", "duration_ms", "statement", "status", "slow", "query"}}
	for _, r := range obs.Traces().Snapshot() {
		status := "ok"
		if r.Error != "" {
			status = "error: " + r.Error
		}
		slow := ""
		if r.Slow {
			slow = "slow"
		}
		res.Rows = append(res.Rows, []any{
			r.TraceID,
			r.Start.Format(time.RFC3339Nano),
			float64(r.Duration.Microseconds()) / 1000,
			r.Statement,
			status,
			slow,
			r.Query,
		})
	}
	return res
}
