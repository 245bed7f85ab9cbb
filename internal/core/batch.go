package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"blendhouse/internal/batch"
	"blendhouse/internal/exec"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/internal/sql"
)

// The engine side of the multi-query batching subsystem: SELECTs are
// planned first (planning is cheap and per-statement), then routed into
// the batch scheduler keyed by their compatibility class. The scheduler
// owns formation and admission; this file owns eligibility, the
// grouping key, and running a formed group through the shared-scan
// executor with per-member result fan-back.

// Batcher exposes the batching scheduler (nil = batching disabled).
// The server wires its admission gate here so each group costs one
// slot.
func (e *Engine) Batcher() *batch.Scheduler { return e.batcher }

// BatchRoutes reports whether src routes through the batching
// scheduler: a statement whose first keyword is SELECT, on an engine
// with batching enabled (EXPLAIN SELECT is an EXPLAIN and does not).
// The server skips per-statement admission for routed statements — the
// scheduler acquires one slot per formed group instead. Only the first
// token is lexed; Query does the one parse. A routed SELECT that then
// fails to parse or plan returns its error from Query before it
// reaches the scheduler, so it holds no admission slot at all — right
// for a statement that does no work.
func (e *Engine) BatchRoutes(src string) bool {
	return e.batcher != nil && sql.LeadsWith(src, "SELECT")
}

// batchItem is the scheduler payload: one planned SELECT.
type batchItem struct {
	table string
	ph    *plan.Physical
	opts  QueryOptions
}

// batchSubmit routes a planned SELECT through the scheduler. Every
// routed statement goes through it — ungroupable ones run solo, inline
// on this goroutine, still through the scheduler's gate, so admission
// accounting stays one slot per run either way.
func (e *Engine) batchSubmit(ctx context.Context, t *lsm.Table, ph *plan.Physical, opts QueryOptions) (*exec.Result, error) {
	table := t.Name()
	ex := e.Executor(table)
	key := ""
	if batchEligible(ph, ex) {
		key = batchKey(ph)
	}
	prof := batch.Profile{Segments: t.SegmentCount()}
	if ex != nil && ex.Stats != nil {
		prof.SegLatency = ex.Stats.SegLatency.Value()
		prof.Selectivity = ex.Stats.Selectivity.Value()
	}
	res, err := e.batcher.Submit(ctx, table, key, prof, &batchItem{table: table, ph: ph, opts: opts})
	if err != nil {
		return nil, err
	}
	r, _ := res.(*exec.Result)
	return r, nil
}

// batchEligible reports whether a plan can join a shared-scan group at
// all. Only vector queries qualify: semantic pruning (whose widening is
// result-dependent) and scalar sorts keep their solo path. Post-filter
// plans (C) are excluded too — they scan the index unfiltered per
// query, so a group shares no bitset or column read; batching them
// would only serialize independent index searches behind one admission
// slot.
func batchEligible(ph *plan.Physical, ex *exec.Executor) bool {
	if ex == nil || ex.SemanticFraction != 0 {
		return false
	}
	if ph.Strategy == plan.PostFilter {
		return false
	}
	lg := ph.Logical
	return lg.Distance != nil && lg.OrderColumn == ""
}

// batchKey renders the compatibility class of a plan: two queries with
// equal keys can share one per-segment pass. Strategy, metric, vector
// column, the full scalar predicate set, and range-ness are shared;
// k, search params, the query vector, the radius and the projection
// stay per-member.
func batchKey(ph *plan.Physical) string {
	lg := ph.Logical
	var b strings.Builder
	fmt.Fprintf(&b, "s=%d|m=%d|vc=%s|rng=%t", ph.Strategy, lg.Metric, lg.VectorColumn, lg.Range != nil)
	if len(lg.ScalarPreds) > 0 {
		preds := make([]string, len(lg.ScalarPreds))
		for i, p := range lg.ScalarPreds {
			preds[i] = predKey(p)
		}
		// Conjunct order doesn't change a conjunction: reordered WHERE
		// clauses land in the same group.
		sort.Strings(preds)
		b.WriteString("|p=")
		b.WriteString(strings.Join(preds, "&"))
	}
	return b.String()
}

// predKey renders one scalar predicate. Literals carry their dynamic
// type (%T) so int64(5) and float64(5) — equal under %v — can't
// collapse into one class with different evaluation semantics.
func predKey(p sql.Predicate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", p.Column, p.Op)
	if p.Value != nil {
		fmt.Fprintf(&b, " %T:%v", p.Value, p.Value)
	}
	if p.Value2 != nil {
		fmt.Fprintf(&b, " %T:%v", p.Value2, p.Value2)
	}
	for _, v := range p.Values {
		fmt.Fprintf(&b, " %T:%v", v, v)
	}
	return b.String()
}

// runBatchGroup executes one formed group through the executor's
// RunGroup: a singleton is its solo run, a larger group one shared
// pass. Every member gets its result (or its own error) delivered
// individually; in a group of two or more, a member's trace gains a
// "batch-group" child span attributing formation and gate waits while
// keeping its own trace ID.
func (e *Engine) runBatchGroup(gctx context.Context, g *batch.Group) {
	members := g.Members()
	if len(members) == 0 {
		return
	}
	it0 := members[0].Payload.(*batchItem)
	ex := e.Executor(it0.table)
	if ex == nil {
		for _, m := range members {
			m.Deliver(nil, unknownTableErr(it0.table))
		}
		return
	}
	qs := make([]exec.GroupQuery, len(members))
	for i, m := range members {
		it := m.Payload.(*batchItem)
		qs[i] = exec.GroupQuery{
			Ctx:  m.Ctx,
			Plan: it.ph,
			Opts: exec.RunOptions{MaxParallelism: it.opts.MaxParallelism},
		}
	}
	mQueries.Add(int64(len(members)))
	start := obs.Now()
	ex.RunGroup(gctx, qs)
	dur := time.Since(start)
	for i, m := range members {
		mQueryLatency.Observe(dur)
		err := qs[i].Err
		if errors.Is(err, exec.ErrInvalidQuery) {
			err = planErr(err)
		}
		if tr := obs.TraceFrom(m.Ctx); tr != nil && len(members) > 1 {
			sp := tr.Span().ChildDur("batch-group", dur)
			sp.SetInt("group_id", int64(g.ID))
			sp.SetInt("group_size", int64(g.Size()))
			sp.SetInt("member", int64(i))
			sp.SetDur("formation_wait", g.FormationWait)
			sp.SetDur("gate_wait", g.GateWait)
		}
		m.Deliver(qs[i].Res, err)
	}
}
