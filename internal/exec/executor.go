package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"blendhouse/internal/bitset"
	"blendhouse/internal/cache"
	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

// Execution metrics (SHOW METRICS / the -debug-addr endpoint). The
// plan.* counters record which of the paper's plans A/B/C the
// optimizer actually ran; widen_rounds counts adaptive semantic-prune
// retries; segment_scans and memtable_scans count the per-segment ANN
// and brute-force scans of a vector run, of stored segments and of
// memtable segments.
var (
	mVecQueries  = obs.Default().Counter("bh.query.vector.total")
	mPlanBrute   = obs.Default().Counter("bh.query.plan.brute_force")
	mPlanPre     = obs.Default().Counter("bh.query.plan.pre_filter")
	mPlanPost    = obs.Default().Counter("bh.query.plan.post_filter")
	mWidenRounds = obs.Default().Counter("bh.query.widen_rounds")
	mSegScans    = obs.Default().Counter("bh.exec.segment_scans")
	mMemScans    = obs.Default().Counter("bh.exec.memtable_scans")
)

// Executor runs physical plans against one table, each segment's scan
// on the node its Placement gives. Per-segment work within a query runs
// on a bounded worker pool; see RunOptions.MaxParallelism.
type Executor struct {
	Table *lsm.Table
	// Placement gives each segment's scan its node: the engine's
	// lsm.IndexCache, shared by every table's executor, or a virtual
	// warehouse.
	Placement Placement
	// ColCache is the adaptive column cache (nil = direct reads).
	ColCache *cache.ColumnCache
	// SemanticFraction enables semantic segment pruning for vector
	// queries on clustered tables: only this fraction of segments
	// (nearest centroids first) is searched, widening adaptively when
	// results come back short; it keeps at least MinSegments. 0
	// disables.
	SemanticFraction float64
	// MaxParallelism bounds the per-query segment fan-out (0 =
	// GOMAXPROCS). Individual runs can override it via RunOptions.
	MaxParallelism int
	// Stats, when non-nil, accumulates observed per-segment scan
	// latency and predicate selectivity — the live inputs of the
	// batched-vs-solo decision (plan.ChooseBatch). Fed by every scan,
	// solo and shared alike, so the averages stay fresh regardless of
	// which path the scheduler picks.
	Stats *obs.ScanStats
}

// Placement puts a run's segment scans on nodes. Occupy takes the node
// that scans t's segment s and returns that node's searcher for s
// (none when exact: plan A reads the rows itself) and the release that
// frees the node once the scan is done.
type Placement interface {
	Occupy(ctx context.Context, t *lsm.Table, s *lsm.Segment, exact bool) (index.Searcher, func(), error)
}

// MinSegments floors the semantic cut: a pruned vector query searches
// at least this many segments.
const MinSegments = 1

// RunOptions tunes one execution. A trace on the run's context
// (obs.WithTrace) records its span tree and tallies.
type RunOptions struct {
	// MaxParallelism overrides the executor's segment fan-out for this
	// run (0 = executor default).
	MaxParallelism int
}

// ErrInvalidQuery tags execution-time validation failures that are the
// statement's fault (unknown column in a predicate, type mismatch), as
// opposed to engine faults. The core layer folds it into the
// api.ErrPlan class so network servers answer 4xx, not 5xx.
var ErrInvalidQuery = errors.New("exec: invalid query")

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    [][]any
	// Partial marks a result assembled from a strict subset of the data
	// holders that should have answered — set only by the scatter-gather
	// coordinator (internal/coord) when shard legs failed and the
	// session opted into partial results. Single-engine execution never
	// sets it.
	Partial bool
}

// hit is one ANN candidate qualified by segment.
type hit struct {
	seg    *lsm.Segment
	offset int
	dist   float32
}

// GroupQuery is one member of a shared-scan group, and its outcome.
type GroupQuery struct {
	// Ctx is the member's own context (cancellation/deadline). nil means
	// the group context governs the member.
	Ctx  context.Context
	Plan *plan.Physical
	Opts RunOptions
	// Res and Err are the member's outcome, set by RunGroup.
	Res *Result
	Err error
}

// A run is one pass of the executor over a slice of members: a lone
// query is a run of one, a shared-scan group a run of n. What does not
// depend on the query vector happens once per segment whatever n is —
// the predicate bitset (deletes included), the index handle, plan A's
// read of the vector rows, each projection column fetch. What does —
// the search, the top-k or range sink, the merge, the result rows — is
// per member, in member order. A member's own failure (its context
// firing, its search failing) stays its own; a shared step's failure
// goes to every member.
type run struct {
	strategy plan.Strategy
	ranged   bool // range search (compatible members share range-ness)
	members  []member
	preds    []compiledPred
	v        *lsm.Version   // pinned for the whole run
	segs     []*lsm.Segment // v's segments, then its memtables' as the run acquired them
	par      int
	tr       *obs.Trace // spans of a solo run; a group records none

	mu  sync.Mutex // guards members' err while segments scan concurrently
	one [1]member  // a solo run's member, inline: RunWith allocates no slice
}

// member is one query of a run.
type member struct {
	ctx    context.Context
	lg     *plan.Logical
	k      int // top-k (100 when the statement has no LIMIT)
	cap    int // heap bound: k, or 0 (keep all) for range search
	params index.SearchParams
	radius float32 // internal-space radius of a range search
	hits   []hit
	cols   []string // output columns
	need   uint64   // the assembly fetch columns it asks for
	at     []place  // where each hit's row sits in the assembly fetch
	err    error
	res    *Result
}

// Run executes a physical plan under ctx: a fired deadline or cancel
// stops remaining segment scans, widening rounds and in-flight remote
// reads promptly, returning the context's error.
func (e *Executor) Run(ctx context.Context, ph *plan.Physical) (*Result, error) {
	return e.RunWith(ctx, ph, RunOptions{})
}

// RunWith executes a physical plan with explicit per-run options: the
// pipeline with one member. Results are deterministic: any parallelism
// degree returns exactly the rows (and ordering) of sequential
// execution.
func (e *Executor) RunWith(ctx context.Context, ph *plan.Physical, opts RunOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := &run{strategy: ph.Strategy, par: e.parallelism(opts.MaxParallelism), tr: obs.TraceFrom(ctx)}
	r.one[0] = member{ctx: ctx, lg: ph.Logical}
	r.members = r.one[:]
	e.execute(ctx, r)
	if root := r.tr.Span(); root != nil {
		// The store work the trace counted: its retries and the
		// breaker's state on the root span, and its reads (summed across
		// parallel workers) as a "storage" span, so the trace attributes
		// tail latency to remote blob reads.
		root.SetInt("store_retries", r.tr.Retries())
		if br, ok := e.Table.Store().(storage.BreakerReporter); ok {
			root.Set("store_breaker", br.BreakerState().String())
		}
		if reads, bytes, dur := r.tr.Reads(); reads > 0 {
			sp := root.ChildDur("storage", dur)
			sp.SetInt("reads", reads)
			sp.SetInt("bytes", bytes)
		}
	}
	return r.one[0].res, r.one[0].err
}

// RunGroup executes a group of compatible plans as one run: each
// segment is walked once for the whole group, and each member's Res
// and Err are what RunWith returns for it alone. Compatibility (same
// strategy, vector column, metric, scalar predicates, range-kind) is
// the caller's contract; a single member, or a group that fails the
// sanity check below, runs member by member through RunWith.
func (e *Executor) RunGroup(gctx context.Context, qs []GroupQuery) {
	if gctx == nil {
		gctx = context.Background()
	}
	for i := range qs {
		if qs[i].Ctx == nil {
			qs[i].Ctx = gctx
		}
	}
	if len(qs) < 2 || !groupCompatible(qs) {
		for i, q := range qs {
			qs[i].Res, qs[i].Err = e.RunWith(q.Ctx, q.Plan, q.Opts)
		}
		return
	}
	r := &run{strategy: qs[0].Plan.Strategy, members: make([]member, len(qs))}
	for i, q := range qs {
		r.members[i] = member{ctx: q.Ctx, lg: q.Plan.Logical}
		r.par = max(r.par, e.parallelism(q.Opts.MaxParallelism))
	}
	e.execute(gctx, r)
	for i, mb := range r.members {
		qs[i].Res, qs[i].Err = mb.res, mb.err
	}
}

// groupCompatible sanity-checks the caller's compatibility contract on
// the dimensions that would make a shared pass wrong rather than merely
// suboptimal. Deep predicate equality is established upstream by the
// grouping key. Plan C shares nothing — each member iterates the index
// unfiltered — so it never forms a group.
func groupCompatible(qs []GroupQuery) bool {
	lg0 := qs[0].Plan.Logical
	if lg0.Distance == nil || qs[0].Plan.Strategy == plan.PostFilter {
		return false
	}
	for _, q := range qs[1:] {
		lg := q.Plan.Logical
		if q.Plan.Strategy != qs[0].Plan.Strategy ||
			lg.Distance == nil ||
			lg.VectorColumn != lg0.VectorColumn ||
			lg.Metric != lg0.Metric ||
			(lg.Range == nil) != (lg0.Range == nil) ||
			len(lg.ScalarPreds) != len(lg0.ScalarPreds) {
			return false
		}
	}
	return true
}

// execute runs r under ctx, which governs the shared steps: compile the
// predicates, acquire one Version and its memtable segments for the
// whole run (a concurrent flush can't duplicate or drop rows, and no
// segment it names is deleted before the run releases it), then the
// scalar scan or the vector pipeline. A shared step's error goes
// to each member without one of its own — as its own context's error
// when that fired — and to a solo run as is.
func (e *Executor) execute(ctx context.Context, r *run) {
	lg := r.members[0].lg
	preds, err := compilePredicates(e.Table.Schema(), lg.ScalarPreds)
	if err == nil {
		r.preds = preds
		r.v, r.segs = e.Table.Acquire()
		defer r.v.Release()
		if lg.IsVectorQuery() {
			err = e.runVector(ctx, r)
		} else {
			err = e.runScalar(ctx, r)
		}
	}
	for i := range r.members {
		mb := &r.members[i]
		switch {
		case err != nil && len(r.members) == 1:
			mb.err = err
		case mb.err != nil:
		case err != nil:
			if mb.err = mb.ctx.Err(); mb.err == nil {
				mb.err = err
			}
		}
		if mb.err != nil {
			mb.res = nil
		}
	}
}

// dropped reports whether member i is out of the run: it failed, or its
// context fired (recorded now as its error).
func (r *run) dropped(i int) bool {
	mb := &r.members[i]
	r.mu.Lock()
	defer r.mu.Unlock()
	if mb.err == nil {
		mb.err = mb.ctx.Err()
	}
	return mb.err != nil
}

// fail records err as member i's own. It returns err once no member is
// left to serve, ending the shared pass: a solo run stops at its first
// failure, exactly as a lone query does.
func (r *run) fail(i int, err error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[i].err == nil {
		r.members[i].err = err
	}
	for j := range r.members {
		if r.members[j].err == nil {
			return nil
		}
	}
	return err
}

// runVector is the vector pipeline: prune, per-segment scan (widening a
// semantically pruned solo run that came back short), per-member merge,
// assembly. Memtable segments go through it like stored ones: with no
// statistics and no centroid, pruning always keeps them.
func (e *Executor) runVector(ctx context.Context, r *run) error {
	r.ranged = r.members[0].lg.Range != nil
	for i := range r.members {
		mb := &r.members[i]
		// Defense in depth: the planner validates query dimension on
		// every SQL path, but plans can also be constructed directly. A
		// mismatch here would otherwise surface as a slice-bounds panic
		// deep inside the distance kernels.
		if err := e.checkVectorDim(mb.lg); err != nil {
			if err := r.fail(i, err); err != nil {
				return err
			}
			continue
		}
		mb.k = mb.lg.K
		if mb.k <= 0 {
			mb.k = 100
		}
		mb.cap = mb.k
		if r.ranged {
			mb.cap, mb.radius = 0, internalRadius(mb.lg)
		}
		mb.params = mb.lg.Params.WithDefaults(mb.k)
	}
	n := int64(len(r.members))
	mVecQueries.Add(n)
	switch r.strategy {
	case plan.BruteForce:
		mPlanBrute.Add(n)
	case plan.PreFilter:
		mPlanPre.Add(n)
	case plan.PostFilter:
		mPlanPost.Add(n)
	default:
		return fmt.Errorf("exec: unknown strategy %v", r.strategy)
	}
	root := r.tr.Span()

	// Semantic pruning ranks segments by one query vector: a solo run's.
	partCol := e.partitionColumn()
	frac := 0.0
	if len(r.members) == 1 {
		frac = e.SemanticFraction
	}
	solo := &r.members[0]
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		pruneSp := root.Child("prune")
		segs, cut := pruneSegments(r.segs, r.preds, partCol, solo.lg.Distance.Query, frac)
		pruneSp.SetInt("round", int64(round))
		pruneSp.SetInt("segments_total", int64(len(r.segs)))
		pruneSp.SetInt("segments_kept", int64(len(segs)))
		pruneSp.SetBool("semantic", cut)
		if cut {
			pruneSp.SetFloat("fraction", frac)
		}
		pruneSp.End()
		if err := e.scan(ctx, r, segs, false); err != nil {
			return err
		}
		// Adaptive semantic widening (paper §IV-B): if pruning cost us
		// results, re-run over more segments.
		if !cut || r.ranged || len(solo.hits) >= solo.k {
			break
		}
		mWidenRounds.Inc()
		if frac *= 2; frac < 1 {
			continue
		}
		segs, _ = pruneSegments(r.segs, r.preds, partCol, nil, 0) // final pass over everything
		if err := e.scan(ctx, r, segs, true); err != nil {
			return err
		}
		break
	}
	// A top-k keeps its k best, a range search its LIMIT if it has one.
	for i := range r.members {
		if mb := &r.members[i]; mb.err == nil {
			sortHits(mb.hits)
			if (!r.ranged || mb.lg.K > 0) && len(mb.hits) > mb.k {
				mb.hits = mb.hits[:mb.k]
			}
		}
	}
	return e.assemble(ctx, r, root)
}

// scan runs the per-segment scan over segs into each member's hits,
// under a "scan" span.
func (e *Executor) scan(ctx context.Context, r *run, segs []*lsm.Segment, final bool) error {
	sp := r.tr.Span().Child("scan")
	sp.Set("strategy", r.strategy.String())
	if final {
		sp.Set("widen", "final")
		sp.SetInt("segments_kept", int64(len(segs)))
	}
	err := e.scanSegments(ctx, r, segs, sp)
	sp.SetInt("hits", int64(len(r.members[0].hits)))
	sp.End()
	return err
}

// sortHits orders hits best first by hitWorse's total order.
func sortHits(hits []hit) {
	slices.SortFunc(hits, func(a, b hit) int {
		if hitWorse(b, a) {
			return -1
		}
		if hitWorse(a, b) {
			return 1
		}
		return 0
	})
}

// checkVectorDim rejects query vectors whose length differs from the
// vector column's declared dimension, as a statement fault
// (ErrInvalidQuery → 4xx), before any kernel sees the data.
func (e *Executor) checkVectorDim(lg *plan.Logical) error {
	col := lg.VectorColumn
	if col == "" {
		col = lg.Distance.Column
	}
	_, def := e.Table.Schema().Col(col)
	if def == nil {
		return fmt.Errorf("%w: unknown vector column %q", ErrInvalidQuery, col)
	}
	if len(lg.Distance.Query) != def.Dim {
		return fmt.Errorf("%w: query vector dim %d != column dim %d", ErrInvalidQuery, len(lg.Distance.Query), def.Dim)
	}
	return nil
}

// predicateBitset evaluates the scalar conjuncts over a whole segment
// (the structured scan of plans A and B) and subtracts the delete
// bitmap. Returns nil when the segment has neither predicates nor
// deletes (= unfiltered).
func (e *Executor) predicateBitset(ctx context.Context, seg *lsm.Segment, preds []compiledPred) (*bitset.Bitset, error) {
	meta, del := seg.Meta, seg.Deletes
	if len(preds) == 0 && del == nil {
		return nil, nil
	}
	bs := bitset.NewFull(meta.Rows)
	if len(preds) > 0 {
		rd := seg.Reader
		var buf [8]*storage.ColumnData
		cols := buf[:0] // one per predicate, a column read once
		for i, p := range preds {
			var c *storage.ColumnData
			var err error
			for j := 0; j < i && c == nil; j++ {
				if preds[j].col == p.col {
					c = cols[j]
				}
			}
			if c == nil {
				c, err = e.ColCache.ReadColumn(ctx, rd, p.col)
			}
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
		}
		for row := 0; row < meta.Rows; row++ {
			for i, p := range preds {
				if !p.eval(cols[i], row) {
					bs.Clear(row)
					break
				}
			}
		}
	}
	if e.Stats != nil && len(preds) > 0 && meta.Rows > 0 {
		e.Stats.Selectivity.Observe(float64(bs.Count()) / float64(meta.Rows))
	}
	if del != nil {
		bs.AndNot(del)
	}
	return bs, nil
}

// LoadedIndexSegments lists, sorted, the table's segments whose index
// handle the engine's node holds (none on a virtual warehouse).
func (e *Executor) LoadedIndexSegments() []string {
	if c, ok := e.Placement.(*lsm.IndexCache); ok {
		return c.Segments(e.Table)
	}
	return nil
}

// InvalidateLocalIndexes drops every handle the engine's node holds, so
// the next query reopens each segment's index from the blob store — the
// explicit cold-node hook of the cache experiments and the benchmark.
// The engine's own write and compaction paths never call it.
func (e *Executor) InvalidateLocalIndexes() {
	if c, ok := e.Placement.(*lsm.IndexCache); ok {
		c.Purge()
	}
}

// --- per-segment scans -------------------------------------------------------

// segScan is one segment's share of a run's scan on one worker.
type segScan struct {
	seg   *lsm.Segment
	span  *obs.Span
	heaps []hitHeap // the worker's heaps, one per member
}

// emit pushes member i's candidates from s's segment into its heap.
func (r *run) emit(s *segScan, i int, cands []index.Candidate) {
	for _, c := range cands {
		s.heaps[i].push(hit{seg: s.seg, offset: int(c.ID), dist: c.Dist}, r.members[i].cap)
	}
	s.span.SetInt("candidates", int64(len(cands)))
}

// scanSegment runs one segment for every live member. Plans A and B and
// range search build the predicate bitset (deletes subtracted) once;
// plan A then reads the admitted vector rows once and scores them per
// member, while B, C and range open the index once and search it per
// member.
func (e *Executor) scanSegment(ctx context.Context, r *run, s *segScan) error {
	post := r.strategy == plan.PostFilter && !r.ranged
	brute := r.strategy == plan.BruteForce && !r.ranged
	var bs *bitset.Bitset
	if !post {
		var err error
		if bs, err = e.predicateBitset(ctx, s.seg, r.preds); err != nil {
			return err
		}
		if !brute && bs != nil && !bs.Any() {
			return nil // nothing qualifies in this segment
		}
	}
	s.span.SetInt("rows", int64(s.seg.Meta.Rows))
	if s.seg.Reader.InMemory() {
		mMemScans.Inc()
	} else {
		mSegScans.Inc()
	}
	ix, release, err := e.Placement.Occupy(ctx, e.Table, s.seg, brute)
	if err != nil {
		return err
	}
	defer release()
	if brute {
		return e.scanRows(ctx, r, s, bs)
	}
	for i := range r.members {
		if r.dropped(i) {
			continue
		}
		mb := &r.members[i]
		var cands []index.Candidate
		switch {
		case r.ranged:
			cands, err = ix.SearchWithRange(mb.lg.Distance.Query, mb.radius, bs, mb.params)
		case post:
			err = e.postFilter(ctx, r, s, ix, i)
		default:
			cands, err = ix.SearchWithFilter(mb.lg.Distance.Query, mb.k, bs, mb.params)
		}
		if err != nil {
			if err := r.fail(i, err); err != nil {
				return err
			}
		} else if !post {
			r.emit(s, i, cands)
		}
	}
	return nil
}

// scanRows is plan A's share of a segment: the rows bs admits, their
// vectors read once, each member's k nearest among them by
// index.ExactScan.
func (e *Executor) scanRows(ctx context.Context, r *run, s *segScan, bs *bitset.Bitset) error {
	sc := getScratch()
	defer putScratch(sc)
	sc.rows = segmentRows(sc.rows, bs, s.seg.Meta.Rows)
	s.span.SetInt("filtered_rows", int64(len(sc.rows)))
	if len(sc.rows) == 0 {
		return nil
	}
	vcol, err := e.ColCache.ReadRows(ctx, s.seg.Reader, r.members[0].lg.VectorColumn, sc.rows, len(sc.rows))
	if err != nil {
		return err
	}
	data := vcol.Vecs[:len(sc.rows)*vcol.Def.Dim]
	for i := range r.members {
		if r.dropped(i) {
			continue
		}
		lg := r.members[i].lg
		t := index.GetTopK(r.members[i].k)
		index.ExactScan(lg.Metric, lg.Distance.Query, data, nil, nil, t, 0, nil)
		sc.cands = t.AppendResults(sc.cands[:0])
		index.PutTopK(t)
		// The scan's ids are positions in data; sc.rows ascends, so
		// mapping them to segment offsets keeps the (Dist, ID) order.
		for j := range sc.cands {
			sc.cands[j].ID = int64(sc.rows[sc.cands[j].ID])
		}
		r.emit(s, i, sc.cands)
	}
	return nil
}

// segmentRows appends to dst the offsets of the segment's rows that bs
// admits: all n of them when bs is nil (no predicates, no deletes).
func segmentRows(dst []int, bs *bitset.Bitset, n int) []int {
	if bs != nil {
		return bs.AppendOnes(dst)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, i)
	}
	return dst
}

// postFilter is plan C for member i: an incremental search on s's
// index whose candidate batches are filtered against the scalar
// predicates (reading only the predicate columns of the candidate
// rows) until k rows qualify or the index is exhausted — Figure 2's
// SearchIterator + partial-top-k-before-filter pipeline.
func (e *Executor) postFilter(ctx context.Context, r *run, s *segScan, ix index.Searcher, i int) error {
	mb := &r.members[i]
	it, err := index.OpenIterator(ix, mb.lg.Distance.Query, mb.k, mb.params)
	if err != nil {
		return err
	}
	defer it.Close()
	del, rd := s.seg.Deletes, s.seg.Reader
	// Candidate rows, the candidates they came from and their verdicts
	// live in pooled scratch, reused across iterator batches.
	sc := getScratch()
	defer putScratch(sc)
	found, batches := 0, 0 // at most k hits leave a segment
	for found < mb.k {
		if err := ctx.Err(); err != nil {
			return err
		}
		cands, err := it.Next(max(mb.k, 16))
		if err != nil {
			return err
		}
		if len(cands) == 0 {
			break
		}
		batches++
		// Evaluate predicates only on the candidate rows.
		sc.rows, sc.cands, sc.pass = sc.rows[:0], sc.cands[:0], sc.pass[:0]
		for _, c := range cands {
			if del != nil && del.Test(int(c.ID)) {
				continue
			}
			sc.rows = append(sc.rows, int(c.ID))
			sc.cands = append(sc.cands, c)
			sc.pass = append(sc.pass, true)
		}
		if len(sc.rows) == 0 {
			continue
		}
		for _, p := range r.preds {
			col, err := e.ColCache.ReadRows(ctx, rd, p.col, sc.rows, len(sc.rows))
			if err != nil {
				return err
			}
			for j := range sc.rows {
				if sc.pass[j] && !p.eval(col, j) {
					sc.pass[j] = false
				}
			}
		}
		for j, c := range sc.cands {
			if sc.pass[j] {
				s.heaps[i].push(hit{seg: s.seg, offset: int(c.ID), dist: c.Dist}, mb.cap)
				if found++; found == mb.k {
					break
				}
			}
		}
	}
	s.span.SetInt("batches", int64(batches))
	s.span.SetInt("candidates", int64(found))
	return nil
}

// internalRadius translates a user-facing range radius into index
// space: internal distances negate IP and square L2.
func internalRadius(lg *plan.Logical) float32 {
	radius := lg.Range.Radius
	switch lg.Metric {
	case vec.L2:
		radius = radius * radius
	case vec.InnerProduct:
		radius = -radius
	}
	return radius
}

// --- scalar-only queries ----------------------------------------------------------

func (e *Executor) runScalar(ctx context.Context, r *run) error {
	lg, preds, tr := r.members[0].lg, r.preds, r.tr
	segs, _ := pruneSegments(r.segs, preds, e.partitionColumn(), nil, 0)
	sp := tr.Span().Child("scalar-scan")
	sp.SetInt("segments", int64(len(segs)))
	type scalarRow struct {
		seg    *lsm.Segment
		offset int
		sortV  float64
		sortS  string
	}
	// Segments scan concurrently; the positional gather keeps segment
	// order (memtable segments last), so the concatenation (and
	// therefore the stable sort and LIMIT below) matches sequential
	// execution exactly.
	perSeg, err := gatherSegments(ctx, segs, r.par, func(ctx context.Context, _ int, seg *lsm.Segment) ([]scalarRow, error) {
		bs, err := e.predicateBitset(ctx, seg, preds)
		if err != nil {
			return nil, err
		}
		s := getScratch()
		defer putScratch(s)
		s.rows = segmentRows(s.rows, bs, seg.Meta.Rows)
		offsets := s.rows
		if len(offsets) == 0 {
			return nil, nil
		}
		var sortCol *storage.ColumnData
		if lg.OrderColumn != "" {
			sortCol, err = e.ColCache.ReadRows(ctx, seg.Reader, lg.OrderColumn, offsets, len(offsets))
			if err != nil {
				return nil, err
			}
		}
		rows := make([]scalarRow, len(offsets))
		for i, off := range offsets {
			rows[i] = scalarRow{seg: seg, offset: off}
			rows[i].sortV, rows[i].sortS = sortKey(sortCol, i)
		}
		return rows, nil
	})
	if err != nil {
		return err
	}
	var rows []scalarRow
	for _, rs := range perSeg {
		rows = append(rows, rs...)
	}
	if lg.OrderColumn != "" {
		sort.SliceStable(rows, func(i, j int) bool {
			less := rows[i].sortV < rows[j].sortV || (rows[i].sortV == rows[j].sortV && rows[i].sortS < rows[j].sortS)
			if lg.Desc {
				return !less && !(rows[i].sortV == rows[j].sortV && rows[i].sortS == rows[j].sortS)
			}
			return less
		})
	}
	if lg.K > 0 && len(rows) > lg.K {
		rows = rows[:lg.K]
	}
	hits := make([]hit, len(rows))
	for i, r := range rows {
		hits[i] = hit{seg: r.seg, offset: r.offset, dist: float32(math.NaN())}
	}
	sp.SetInt("hits", int64(len(hits)))
	sp.End()
	r.members[0].hits = hits
	return e.assemble(ctx, r, tr.Span())
}

// sortKey reads row's ORDER BY key out of col (nil = unordered).
func sortKey(col *storage.ColumnData, row int) (float64, string) {
	switch {
	case col == nil:
	case col.Def.Type == storage.Int64Type || col.Def.Type == storage.DateTimeType:
		return float64(col.Ints[row]), ""
	case col.Def.Type == storage.Float64Type:
		return col.Floats[row], ""
	case col.Def.Type == storage.StringType:
		return 0, col.Strs[row]
	}
	return 0, ""
}

// --- output assembly ---------------------------------------------------------------

// place locates a hit's row in the assembly fetch: its segment, and
// its position among the rows fetched from that segment.
type place struct{ seg, pos int }

// assemble fetches the projection columns for every live member's
// final hits and builds each member's result rows in hit order. Hits
// are grouped by segment in first-appearance order across members, and
// each segment's rows (a row two members share, once) are fetched once
// per column, concurrently across segments, through the hit's own
// segment reader and the column cache. Everything is positional — a
// hit's place says where its row sits — so a solo run builds no map; a
// group dedupes shared rows through one.
func (e *Executor) assemble(ctx context.Context, r *run, sp *obs.Span) error {
	total := 0
	for i := range r.members {
		if mb := &r.members[i]; mb.err == nil {
			total += len(mb.hits)
			mb.cols = e.outputColumns(mb.lg)
			mb.res = &Result{Columns: mb.cols}
		}
	}
	asp := sp.Child("assemble")
	asp.SetInt("rows", int64(total))
	defer asp.End()
	if total == 0 {
		return nil
	}
	// The columns to fetch: every member's output columns less its
	// distance alias, in first-requested order; a member's need has
	// bit min(i, 63) set for each fetch column i it asks for.
	var fetch []string
	for i := range r.members {
		mb := &r.members[i]
		for _, c := range mb.cols { // nil for a member that failed
			if isDistAlias(mb.lg, c) {
				continue
			}
			fi := slices.Index(fetch, c)
			if fi < 0 {
				fi = len(fetch)
				fetch = append(fetch, c)
			}
			mb.need |= 1 << min(fi, 63)
		}
	}
	type segFetch struct {
		seg  *lsm.Segment
		n    int                   // rows fetched from this segment
		need uint64                // columns some member with hits here needs
		rows []int                 // their offsets, in first-appearance order
		cols []*storage.ColumnData // one per fetch column
	}
	segs := make([]segFetch, 0, 8)
	at, rows := make([]place, total), 0
	var seen map[place]int // (segment, offset) -> position, for a group's shared rows
	if len(r.members) > 1 {
		seen = make(map[place]int, total)
	}
	for i := range r.members {
		mb := &r.members[i]
		if mb.err != nil {
			continue
		}
		mb.at, at = at[:len(mb.hits)], at[len(mb.hits):]
		for j, h := range mb.hits {
			si := -1
			for s := len(segs) - 1; s >= 0; s-- { // newest first: hits grouped by segment match at once
				if segs[s].seg == h.seg {
					si = s
					break
				}
			}
			if si < 0 {
				si = len(segs)
				segs = append(segs, segFetch{seg: h.seg})
			}
			sf := &segs[si]
			sf.need |= mb.need
			pos := sf.n
			if seen != nil {
				if p, ok := seen[place{si, h.offset}]; ok {
					pos = p
				} else {
					seen[place{si, h.offset}] = pos
				}
			}
			if pos == sf.n {
				sf.n++
				rows++
			}
			mb.at[j] = place{si, pos}
		}
	}
	offsets := make([]int, rows)
	fetched := make([]*storage.ColumnData, len(segs)*len(fetch))
	for si := range segs {
		segs[si].rows, offsets = offsets[:segs[si].n], offsets[segs[si].n:]
		segs[si].cols = fetched[si*len(fetch) : (si+1)*len(fetch)]
	}
	for i := range r.members {
		if mb := &r.members[i]; mb.err == nil {
			for j, h := range mb.hits {
				segs[mb.at[j].seg].rows[mb.at[j].pos] = h.offset
			}
		}
	}
	err := poolRun(ctx, len(segs), r.par, func(ctx context.Context, si int) error {
		sf := &segs[si]
		for fi, c := range fetch {
			if sf.need&(1<<min(fi, 63)) == 0 {
				continue
			}
			cd, err := e.ColCache.ReadRows(ctx, sf.seg.Reader, c, sf.rows, rows)
			if err != nil {
				return err
			}
			sf.cols[fi] = cd
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Each member's rows are cut from one backing array of cells
	// (capacity-limited, so a caller appending to one row cannot write
	// into the next).
	for i := range r.members {
		mb := &r.members[i]
		if mb.err != nil || len(mb.hits) == 0 {
			continue
		}
		nc := len(mb.cols)
		cells := make([]any, len(mb.hits)*nc)
		mb.res.Rows = make([][]any, len(mb.hits))
		for j := range mb.hits {
			mb.res.Rows[j] = cells[j*nc : (j+1)*nc : (j+1)*nc]
		}
		for ci, c := range mb.cols {
			alias, fi := isDistAlias(mb.lg, c), slices.Index(fetch, c)
			for j, h := range mb.hits {
				if alias {
					mb.res.Rows[j][ci] = outputDistance(mb.lg.Metric, h.dist)
				} else {
					mb.res.Rows[j][ci] = columnValue(segs[mb.at[j].seg].cols[fi], mb.at[j].pos)
				}
			}
		}
	}
	return nil
}

// outputColumns lists a statement's result columns: its projection, or
// for SELECT * every table column plus the distance alias.
func (e *Executor) outputColumns(lg *plan.Logical) []string {
	if !lg.Star {
		return lg.Projection
	}
	var cols []string
	for _, c := range e.Table.Schema().Columns {
		cols = append(cols, c.Name)
	}
	if lg.DistAlias != "" {
		cols = append(cols, lg.DistAlias)
	}
	return cols
}

// isDistAlias reports whether output column c is lg's distance alias.
func isDistAlias(lg *plan.Logical, c string) bool {
	return c == lg.DistAlias && lg.DistAlias != ""
}

// outputDistance converts internal index distances to user-facing
// values: L2 is reported as true Euclidean distance, inner product is
// un-negated, cosine passes through.
func outputDistance(m vec.Metric, d float32) float64 {
	switch m {
	case vec.L2:
		return math.Sqrt(float64(d))
	case vec.InnerProduct:
		return float64(-d)
	default:
		return float64(d)
	}
}

func columnValue(cd *storage.ColumnData, row int) any {
	switch cd.Def.Type {
	case storage.Int64Type, storage.DateTimeType:
		return cd.Ints[row]
	case storage.Float64Type:
		return cd.Floats[row]
	case storage.StringType:
		return cd.Strs[row]
	case storage.VectorType:
		return append([]float32(nil), cd.Vector(row)...)
	}
	return nil
}
