package coord

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blendhouse/internal/core"
	"blendhouse/internal/exec"
	"blendhouse/internal/obs"
	"blendhouse/internal/retry"
	"blendhouse/internal/sql"
	"blendhouse/pkg/api"
	"blendhouse/pkg/client"
)

// errBreakerOpen marks a leg skipped because the shard's breaker is
// open: the shard is treated as down without paying a dial attempt.
var errBreakerOpen = errors.New("coord: shard breaker open")

// rr spreads single-shard forwards (SHOW TABLES, DESCRIBE, EXPLAIN)
// across the cluster instead of hammering shard 0.
var rr atomic.Uint64

// Query implements server.Backend: parse the statement, route it
// across the shard set, and return a merged result whose errors match
// the taxonomy of pkg/api (so the serving layer maps them exactly like
// a single-engine node's).
func (c *Coordinator) Query(ctx context.Context, src string, opts core.QueryOptions) (*exec.Result, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	// One trace ID spans the coordinator and every shard leg. The
	// serving layer normally minted one already; direct callers (tests,
	// benches) get one here.
	if obs.TraceIDFrom(ctx) == "" {
		ctx = obs.WithTraceID(ctx, obs.NewTraceID())
	}
	mStatements.Inc()
	st, err := sql.Parse(src)
	if err != nil {
		mStmtErrs.Inc()
		return nil, fmt.Errorf("coord: %w: %w", api.ErrPlan, err)
	}
	kind := sql.Kind(st)

	ctx, tr := c.traces.StartStatement(ctx, "coordinate", kind, opts.QueueWait)
	tr.Span().Set("role", "coordinator")
	start := obs.Now()

	res, qerr := c.dispatch(ctx, st, src, opts)
	dur := time.Since(start)
	mLatency.Observe(dur)
	if qerr != nil {
		mStmtErrs.Inc()
	} else if res != nil {
		if res.Partial {
			mPartial.Inc()
		}
		mMergedRows.Add(int64(len(res.Rows)))
	}
	tr.EndStatement(kind, src, dur, qerr, false)
	return res, qerr
}

// dispatch routes one parsed statement.
func (c *Coordinator) dispatch(ctx context.Context, st sql.Statement, src string, opts core.QueryOptions) (*exec.Result, error) {
	switch s := st.(type) {
	case *sql.Select:
		return c.scatterSelect(ctx, s, opts)
	case *sql.Insert:
		return c.scatterInsert(ctx, s, opts)
	case *sql.Delete:
		return c.scatterDelete(ctx, s, opts)
	case *sql.CreateTable:
		return c.broadcast(ctx, src, "created table "+s.Name, opts)
	case *sql.DropTable:
		return c.broadcast(ctx, src, "dropped table "+s.Name, opts)
	case *sql.Optimize:
		return c.broadcast(ctx, src, "compacted "+s.Name, opts)
	case *sql.ShowMetrics:
		// The coordinator's own registry (bh.coord.* + bh.server.*):
		// cluster-wide engine metrics live on the shards' endpoints.
		return core.ShowMetrics(), nil
	case *sql.ShowTraces:
		return core.ShowTraces(), nil
	default:
		// SHOW TABLES, DESCRIBE, EXPLAIN [ANALYZE], and anything the
		// coordinator has no cluster semantics for: every shard holds
		// the same catalog, so any one healthy shard can answer.
		return c.forwardAny(ctx, src, opts)
	}
}

// ---- shard legs -----------------------------------------------------

// legResult is one shard leg's outcome.
type legResult struct {
	shard *shard
	res   *client.Result
	err   error
}

// down reports whether the leg failed in a way that means the shard
// process is unreachable or going away (as opposed to the statement
// being rejected by a live shard). A leg skipped by an open breaker is
// down.
func (lr legResult) down() bool {
	return lr.err != nil && legDown(lr.err)
}

// legDown classifies a pkg/client error: network-level failures and
// exhausted retries (non-APIError) mean the shard is down, as does an
// explicit DRAINING answer (the shard is going away). Every other API
// error — plan errors, unknown table, shed, timeout — came from a live
// shard executing (or rejecting) the statement.
func legDown(err error) bool {
	if errors.Is(err, api.ErrTimeout) || errors.Is(err, api.ErrCanceled) {
		return false // deadline/cancel is the statement's fault, not the shard's
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Code == api.CodeDraining
	}
	return true
}

// leg runs one statement against one shard, honoring its breaker and
// forwarding the statement's trace ID and remaining deadline.
func (c *Coordinator) leg(ctx context.Context, s *shard, stmt string, execRoute bool, opts core.QueryOptions) legResult {
	mLegs.Inc()
	root := obs.TraceFrom(ctx).Span()
	if ok, _ := s.brk.Allow(); !ok {
		mLegSkips.Inc()
		if root != nil {
			sp := root.Child("leg " + s.name)
			sp.Set("skipped", "breaker open")
			sp.End()
		}
		return legResult{shard: s, err: fmt.Errorf("%w: %s", errBreakerOpen, s.name)}
	}
	var sp *obs.Span
	if root != nil {
		sp = root.Child("leg " + s.name)
	}
	legOpts := []client.Option{client.WithTraceID(obs.TraceIDFrom(ctx))}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			// Enforce the remaining budget shard-side too, so a slow leg
			// cancels its segment scans instead of just being abandoned.
			legOpts = append(legOpts, client.WithTimeout(rem))
		}
	}
	if opts.MaxParallelism > 0 {
		legOpts = append(legOpts, client.WithMaxParallelism(opts.MaxParallelism))
	}
	start := time.Now()
	var res *client.Result
	var err error
	if execRoute {
		res, err = s.cli.Exec(ctx, stmt, legOpts...)
	} else {
		res, err = s.cli.Query(ctx, stmt, legOpts...)
	}
	mLegLatency.Observe(time.Since(start))
	if sp != nil {
		if err != nil {
			sp.Set("error", err.Error())
		}
		sp.End()
	}
	// A shard that answered is alive, even when it rejected the
	// statement; the statement's own deadline firing proves nothing.
	o := retry.Success
	switch {
	case err == nil:
	case ctx.Err() != nil:
		o = retry.Neutral
	case legDown(err):
		o = retry.Failure
	}
	if t := s.brk.Record(o); t.Changed() && t.To == retry.Open {
		mBreakerTrip.Inc()
		coordLog.WarnContext(ctx, "shard breaker opened", "shard", s.name, "error", err.Error())
	}
	if err != nil {
		mLegErrs.Inc()
	}
	return legResult{shard: s, res: res, err: err}
}

// runLegs fans per-shard statements out concurrently, one leg each.
func (c *Coordinator) runLegs(ctx context.Context, shards []*shard, stmts []string, execRoute bool, opts core.QueryOptions) []legResult {
	out := make([]legResult, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = c.leg(ctx, shards[i], stmts[i], execRoute, opts)
		}(i)
	}
	wg.Wait()
	return out
}

// ---- error mapping --------------------------------------------------

// unavailable builds a coverage-loss failure (502 UNAVAILABLE). The
// cause keeps its text but not its class: a DRAINING leg must not
// turn the statement into a retryable 503.
func unavailable(cause error, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if cause == nil {
		return fmt.Errorf("coord: %s: %w", msg, api.ErrUnavailable)
	}
	return fmt.Errorf("coord: %s: %w: %v", msg, api.ErrUnavailable, cause)
}

// mapLegErr prefixes a live shard's rejection of a leg with the shard
// name. The leg's error already carries its taxonomy class (pkg/client
// reads it off the wire), so a coordinator in front of the cluster
// answers with the status and code the shard did — except a shard
// that shed or refused the leg: the coordinator may already have run
// the other legs, so it answers 502 UNAVAILABLE, never a retryable
// SHED or DRAINING.
func mapLegErr(shardName string, err error) error {
	if errors.Is(err, api.ErrShed) || errors.Is(err, api.ErrDraining) || errors.Is(err, api.ErrUnavailable) {
		return unavailable(err, "shard %s", shardName)
	}
	return fmt.Errorf("coord: shard %s: %w", shardName, err)
}

// ---- statement routing ----------------------------------------------

// forwardAny sends the statement to one healthy shard (round-robin
// start, walking past open breakers and down shards). A live shard's
// error is the statement's answer; only unreachable shards are walked
// past.
func (c *Coordinator) forwardAny(ctx context.Context, src string, opts core.QueryOptions) (*exec.Result, error) {
	start := int(rr.Add(1)) % len(c.shards)
	var lastDown legResult
	for i := 0; i < len(c.shards); i++ {
		s := c.shards[(start+i)%len(c.shards)]
		lr := c.leg(ctx, s, src, false, opts)
		if lr.err == nil {
			return clientResult(lr.res), nil
		}
		if !lr.down() {
			return nil, mapLegErr(s.name, lr.err)
		}
		lastDown = lr
		if ctx.Err() != nil {
			return nil, api.ContextErr(ctx.Err())
		}
	}
	return nil, unavailable(lastDown.err, "no shard reachable (%d tried)", len(c.shards))
}

// broadcast sends DDL to every shard; it must reach all of them, so
// any unreachable shard fails the statement closed (partial DDL would
// diverge the shards' catalogs). A live shard's rejection (table
// exists, unknown table) is deterministic across shards and propagates
// as-is.
func (c *Coordinator) broadcast(ctx context.Context, src, okMsg string, opts core.QueryOptions) (*exec.Result, error) {
	stmts := make([]string, len(c.shards))
	for i := range stmts {
		stmts[i] = src
	}
	legs := c.runLegs(ctx, c.shards, stmts, true, opts)
	okCount := 0
	var downLeg legResult
	for _, lr := range legs {
		switch {
		case lr.err == nil:
			okCount++
		case !lr.down():
			return nil, mapLegErr(lr.shard.name, lr.err)
		default:
			downLeg = lr
		}
	}
	if okCount < len(legs) {
		if ctx.Err() != nil {
			return nil, api.ContextErr(ctx.Err())
		}
		return nil, unavailable(downLeg.err, "DDL reached %d/%d shards", okCount, len(legs))
	}
	return statusResult(fmt.Sprintf("OK: %s on %d shards", okMsg, okCount)), nil
}

// scatterInsert splits the rows by placement — each row's key (its
// first column) hashes to Replicas owner shards on the ring — and runs
// one INSERT leg per owning shard, preserving statement row order
// within each leg.
func (c *Coordinator) scatterInsert(ctx context.Context, ins *sql.Insert, opts core.QueryOptions) (*exec.Result, error) {
	if ins.Infile != "" {
		return nil, fmt.Errorf("coord: %w: INSERT ... INFILE is not supported in coordinate mode (the file is local to the coordinator); use VALUES, or load shards directly", api.ErrPlan)
	}
	if len(ins.Rows) == 0 {
		return nil, fmt.Errorf("coord: %w: INSERT with no rows", api.ErrPlan)
	}
	perShard := make(map[string][][]any)
	for _, row := range ins.Rows {
		if len(row) == 0 {
			return nil, fmt.Errorf("coord: %w: INSERT with an empty row", api.ErrPlan)
		}
		key := renderValue(row[0])
		owners := c.ring.GetN(key, c.replicas)
		if len(owners) == 0 {
			return nil, unavailable(nil, "placement ring is empty")
		}
		for _, owner := range owners {
			perShard[owner] = append(perShard[owner], row)
		}
	}
	names := make([]string, 0, len(perShard))
	for n := range perShard {
		names = append(names, n)
	}
	sort.Strings(names)
	shards := make([]*shard, len(names))
	stmts := make([]string, len(names))
	for i, n := range names {
		shards[i] = c.byName[n]
		stmts[i] = renderInsert(ins.Table, perShard[n])
	}
	legs := c.runLegs(ctx, shards, stmts, true, opts)
	return c.dmlOutcome(ctx, legs, fmt.Sprintf(
		"OK: inserted %d rows into %s across %d shards (replicas=%d)",
		len(ins.Rows), ins.Table, len(legs), c.replicas))
}

// scatterDelete routes each key to its Replicas owner shards (the same
// placement as scatterInsert, so deletes find the rows inserts put
// there) and runs one DELETE leg per owning shard.
func (c *Coordinator) scatterDelete(ctx context.Context, del *sql.Delete, opts core.QueryOptions) (*exec.Result, error) {
	if len(del.Keys) == 0 {
		return nil, fmt.Errorf("coord: %w: DELETE with no keys", api.ErrPlan)
	}
	perShard := make(map[string][]int64)
	for _, k := range del.Keys {
		key := strconv.FormatInt(k, 10)
		owners := c.ring.GetN(key, c.replicas)
		if len(owners) == 0 {
			return nil, unavailable(nil, "placement ring is empty")
		}
		for _, owner := range owners {
			perShard[owner] = append(perShard[owner], k)
		}
	}
	names := make([]string, 0, len(perShard))
	for n := range perShard {
		names = append(names, n)
	}
	sort.Strings(names)
	shards := make([]*shard, len(names))
	stmts := make([]string, len(names))
	for i, n := range names {
		shards[i] = c.byName[n]
		stmts[i] = renderDelete(del.Table, del.Column, perShard[n])
	}
	legs := c.runLegs(ctx, shards, stmts, true, opts)
	return c.dmlOutcome(ctx, legs, fmt.Sprintf(
		"OK: deleted %d keys from %s across %d shards (replicas=%d)",
		len(del.Keys), del.Table, len(legs), c.replicas))
}

// dmlOutcome applies the multi-leg DML failure policy: all legs
// succeeded → status row; a live shard rejected the statement → its
// (deterministic) error propagates; any leg failed while another
// succeeded → the statement is partially applied, which is a
// non-retryable internal failure; nothing succeeded against an
// unreachable cluster → UNAVAILABLE.
func (c *Coordinator) dmlOutcome(ctx context.Context, legs []legResult, okMsg string) (*exec.Result, error) {
	okCount := 0
	var aliveErr error
	var aliveShard string
	var downLeg legResult
	var firstErr error
	for _, lr := range legs {
		switch {
		case lr.err == nil:
			okCount++
			continue
		case !lr.down():
			if aliveErr == nil {
				aliveErr, aliveShard = lr.err, lr.shard.name
			}
		default:
			downLeg = lr
		}
		if firstErr == nil {
			firstErr = lr.err
		}
	}
	switch {
	case okCount == len(legs):
		return statusResult(okMsg), nil
	case okCount == 0 && aliveErr != nil:
		// Every leg failed and at least one shard is live: a statement
		// problem (unknown table, bad values), identical on all shards.
		return nil, mapLegErr(aliveShard, aliveErr)
	case okCount == 0:
		if ctx.Err() != nil {
			return nil, api.ContextErr(ctx.Err())
		}
		return nil, unavailable(downLeg.err, "DML reached 0/%d shards", len(legs))
	default:
		// Mixed outcome: some shards applied the statement, some did
		// not. Retrying could double-apply on the shards that succeeded,
		// so this is a non-retryable internal failure whatever the legs
		// answered (the first leg error keeps its text, not its class);
		// the client sees 500 INTERNAL and must reconcile.
		if ctx.Err() != nil {
			return nil, api.ContextErr(ctx.Err())
		}
		return nil, fmt.Errorf("coord: DML partially applied (%d/%d shard legs succeeded): %v",
			okCount, len(legs), firstErr)
	}
}

// scatterSelect fans the (rewritten) SELECT out to every shard and
// merges the per-shard top-k deterministically (merge.go). Coverage
// policy: with R = Replicas, missing fewer than R shards still yields
// a complete result (every key has R owners, so a surviving owner
// answered); at R or more missing, the result would silently drop
// rows, so the query fails closed with UNAVAILABLE unless the session
// opted in via SET allow_partial = on.
func (c *Coordinator) scatterSelect(ctx context.Context, sel *sql.Select, opts core.QueryOptions) (*exec.Result, error) {
	plan := buildMergePlan(sel)
	stmt := renderSelect(sel)
	stmts := make([]string, len(c.shards))
	for i := range stmts {
		stmts[i] = stmt
	}
	legs := c.runLegs(ctx, c.shards, stmts, false, opts)

	var results []*client.Result
	downCount := 0
	var downLeg legResult
	for _, lr := range legs {
		switch {
		case lr.err == nil:
			results = append(results, lr.res)
		case !lr.down():
			// A live shard rejected or failed the query (plan error,
			// unknown table, timeout): deterministic across shards, so
			// it is the query's answer.
			return nil, mapLegErr(lr.shard.name, lr.err)
		default:
			downCount++
			downLeg = lr
		}
	}
	if len(results) == 0 {
		if ctx.Err() != nil {
			return nil, api.ContextErr(ctx.Err())
		}
		return nil, unavailable(downLeg.err, "no shard answered (%d down)", downCount)
	}
	partial := false
	if downCount >= c.replicas {
		if !opts.AllowPartial {
			return nil, unavailable(downLeg.err,
				"%d/%d shards unreachable with %d replicas — rows may be missing (SET allow_partial = on to accept)",
				downCount, len(c.shards), c.replicas)
		}
		partial = true
	}
	res, err := mergeResults(results, plan, c.replicas > 1)
	if err != nil {
		return nil, err
	}
	res.Partial = partial
	return res, nil
}

// ---- local result helpers -------------------------------------------

// clientResult converts a shard's wire result to the backend result
// shape. Values stay as decoded (json.Number for numerics), which the
// serving layer re-encodes byte-identically.
func clientResult(r *client.Result) *exec.Result {
	return &exec.Result{Columns: r.Columns, Rows: r.Rows}
}

func statusResult(msg string) *exec.Result {
	return &exec.Result{Columns: []string{"status"}, Rows: [][]any{{msg}}}
}
