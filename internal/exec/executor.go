package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	"blendhouse/internal/wal"
)

// Execution metrics (SHOW METRICS / the -debug-addr endpoint). The
// plan.* counters record which of the paper's plans A/B/C the
// optimizer actually ran; widen_rounds counts adaptive semantic-prune
// retries; segment_scans counts per-segment ANN and brute-force scans.
var (
	mVecQueries  = obs.Default().Counter("bh.query.vector.total")
	mPlanBrute   = obs.Default().Counter("bh.query.plan.brute_force")
	mPlanPre     = obs.Default().Counter("bh.query.plan.pre_filter")
	mPlanPost    = obs.Default().Counter("bh.query.plan.post_filter")
	mWidenRounds = obs.Default().Counter("bh.query.widen_rounds")
	mSegScans    = obs.Default().Counter("bh.exec.segment_scans")
)

// Executor runs physical plans against one table, keeping each
// segment's opened index in-process. Per-segment work within a query
// runs on a bounded worker pool; see RunOptions.MaxParallelism.
type Executor struct {
	Table *lsm.Table
	// ColCache is the adaptive column cache (nil = direct reads).
	ColCache *cache.ColumnCache
	// SemanticFraction enables semantic segment pruning for vector
	// queries on clustered tables: only this fraction of segments
	// (nearest centroids first) is searched, widening adaptively when
	// results come back short. 0 disables.
	SemanticFraction float64
	// MinSegments floors the semantic cut.
	MinSegments int
	// MaxParallelism bounds the per-query segment fan-out (0 =
	// GOMAXPROCS). Individual runs can override it via RunOptions.
	MaxParallelism int
	// Stats, when non-nil, accumulates observed per-segment scan
	// latency and predicate selectivity — the live inputs of the
	// batched-vs-solo decision (plan.ChooseBatch). Fed by every scan,
	// solo and shared alike, so the averages stay fresh regardless of
	// which path the scheduler picks.
	Stats *obs.ScanStats

	localIdx sync.Map // segment name -> index.Index
}

// RunOptions tunes one execution.
type RunOptions struct {
	// Trace records a span tree and cache tallies for EXPLAIN ANALYZE
	// (nil = untraced; instrumentation is then a no-op).
	Trace *obs.Trace
	// MaxParallelism overrides the executor's segment fan-out for this
	// run (0 = executor default).
	MaxParallelism int
}

// ErrInvalidQuery tags execution-time validation failures that are the
// statement's fault (unknown column in a predicate, type mismatch), as
// opposed to engine faults. The core layer folds it into its ErrPlan
// class so network servers answer 4xx, not 5xx.
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
	meta   *storage.SegmentMeta
	offset int
	dist   float32
}

// Run executes a physical plan under ctx: a fired deadline or cancel
// stops remaining segment scans, widening rounds and in-flight remote
// reads promptly, returning the context's error.
func (e *Executor) Run(ctx context.Context, ph *plan.Physical) (*Result, error) {
	return e.RunWith(ctx, ph, RunOptions{})
}

// RunTraced is Run with a span tree and cache tallies recorded on tr
// when non-nil (the execution half of EXPLAIN ANALYZE). A nil trace
// makes every instrumentation call a no-op: no allocations, no locks,
// so untraced bench numbers are unaffected.
func (e *Executor) RunTraced(ctx context.Context, ph *plan.Physical, tr *obs.Trace) (*Result, error) {
	return e.RunWith(ctx, ph, RunOptions{Trace: tr})
}

// RunWith executes a physical plan with explicit per-run options.
// Results are deterministic: any parallelism degree returns exactly
// the rows (and ordering) of sequential execution.
func (e *Executor) RunWith(ctx context.Context, ph *plan.Physical, opts RunOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := opts.Trace
	par := e.parallelism(opts.MaxParallelism)
	lg := ph.Logical
	root := tr.Span()
	// Traced queries carry a retry tally through the context: every
	// storage retry charged to this query surfaces as a root-span
	// attribute in EXPLAIN ANALYZE, alongside the circuit breaker's
	// state when the store has one.
	if tr != nil {
		tally := &storage.RetryTally{}
		ctx = storage.WithRetryTally(ctx, tally)
		// An IO tally rides along too: the segment read paths feed it,
		// and it materializes as a "storage" span so the trace attributes
		// tail latency to remote blob reads (summed across parallel
		// workers) without instrumenting every store implementation.
		io := &storage.IOTally{}
		ctx = storage.WithIOTally(ctx, io)
		defer func() {
			root.SetInt("store_retries", tally.Retries())
			if br, ok := e.Table.Store().(storage.BreakerReporter); ok {
				root.Set("store_breaker", br.BreakerState().String())
			}
			if reads, bytes, dur := io.Values(); reads > 0 {
				sp := root.ChildDur("storage", dur)
				sp.SetInt("reads", reads)
				sp.SetInt("bytes", bytes)
			}
		}()
	}
	preds, err := compilePredicates(e.Table.Schema(), lg.ScalarPreds)
	if err != nil {
		return nil, err
	}
	// One consistent view of segments + memtable snapshots for the
	// whole query: a concurrent memtable flush can't duplicate or drop
	// rows mid-execution.
	view := e.Table.View()
	if !lg.IsVectorQuery() {
		return e.runScalar(ctx, lg, preds, par, view, tr)
	}
	// Defense in depth: the planner validates query dimension on every
	// SQL path, but plans can also be constructed directly. A mismatch
	// here would otherwise surface as a slice-bounds panic deep inside
	// the distance kernels.
	if err := e.checkVectorDim(lg); err != nil {
		return nil, err
	}
	mVecQueries.Inc()
	switch ph.Strategy {
	case plan.BruteForce:
		mPlanBrute.Inc()
	case plan.PreFilter:
		mPlanPre.Inc()
	case plan.PostFilter:
		mPlanPost.Inc()
	}
	k := lg.K
	if k <= 0 {
		k = 100
	}
	params := lg.Params.WithDefaults(k)

	runStrategy := func(metas []*storage.SegmentMeta, sp *obs.Span) ([]hit, error) {
		switch ph.Strategy {
		case plan.BruteForce:
			return e.runBruteForce(ctx, lg, preds, metas, k, par, sp, tr)
		case plan.PreFilter:
			return e.runPreFilter(ctx, lg, preds, metas, k, par, params, sp, tr)
		case plan.PostFilter:
			return e.runPostFilter(ctx, lg, preds, metas, k, par, params, sp, tr)
		default:
			return nil, fmt.Errorf("exec: unknown strategy %v", ph.Strategy)
		}
	}

	// Unflushed rows: brute-force the memtable snapshots once — they
	// are immune to semantic widening (never pruned) but their hits
	// count toward k before a widening round is declared necessary.
	var memHits []hit
	if len(view.Mem) > 0 && lg.Range == nil {
		memSp := root.Child("mem-scan")
		memHits = memTopK(lg, preds, view.Mem, k)
		memSp.SetInt("snapshots", int64(len(view.Mem)))
		memSp.SetInt("hits", int64(len(memHits)))
		memSp.End()
	}

	partCol := e.partitionColumn()
	frac := e.SemanticFraction
	round := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		total := len(view.Segments)
		pruneSp := root.Child("prune")
		metas, prunedSemantically := pruneSegments(view.Segments, preds, partCol, lg.Distance.Query, frac, e.MinSegments)
		pruneSp.SetInt("round", int64(round))
		pruneSp.SetInt("segments_total", int64(total))
		pruneSp.SetInt("segments_kept", int64(len(metas)))
		pruneSp.SetBool("semantic", prunedSemantically)
		if prunedSemantically {
			pruneSp.SetFloat("fraction", frac)
		}
		pruneSp.End()

		scanSp := root.Child("scan")
		scanSp.Set("strategy", ph.Strategy.String())
		var hits []hit
		var err error
		if lg.Range != nil {
			hits, err = e.runRange(ctx, lg, preds, metas, par, params, view.Mem, scanSp, tr)
		} else {
			hits, err = runStrategy(metas, scanSp)
		}
		scanSp.SetInt("hits", int64(len(hits)))
		scanSp.End()
		if err != nil {
			return nil, err
		}
		// Adaptive semantic widening (paper §IV-B): if pruning cost us
		// results, re-run over more segments.
		if prunedSemantically && len(hits)+len(memHits) < k && lg.Range == nil {
			mWidenRounds.Inc()
			round++
			frac = frac * 2
			if frac < 1 {
				continue
			}
			frac = 1 // final pass over everything
			metas, _ := pruneSegments(view.Segments, preds, partCol, nil, 0, 0)
			finalSp := root.Child("scan")
			finalSp.Set("strategy", ph.Strategy.String())
			finalSp.Set("widen", "final")
			finalSp.SetInt("segments_kept", int64(len(metas)))
			hits, err = runStrategy(metas, finalSp)
			finalSp.SetInt("hits", int64(len(hits)))
			finalSp.End()
			if err != nil {
				return nil, err
			}
		}
		hits = append(hits, memHits...)
		sortHits(hits)
		if lg.Range == nil && len(hits) > k {
			hits = hits[:k]
		}
		return e.assemble(ctx, lg, hits, par, view, root, tr)
	}
}

func sortHits(hits []hit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].dist != hits[j].dist {
			return hits[i].dist < hits[j].dist
		}
		if hits[i].meta.Name != hits[j].meta.Name {
			return hits[i].meta.Name < hits[j].meta.Name
		}
		return hits[i].offset < hits[j].offset
	})
}

// checkVectorDim rejects query vectors whose length differs from the
// vector column's declared dimension, as a statement fault
// (ErrInvalidQuery → 4xx), before any kernel sees the data.
func (e *Executor) checkVectorDim(lg *plan.Logical) error {
	if lg.Distance == nil {
		return nil
	}
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
func (e *Executor) predicateBitset(ctx context.Context, meta *storage.SegmentMeta, preds []compiledPred, tr *obs.Trace) (*bitset.Bitset, error) {
	del, err := e.Table.DeleteBitmapCtx(ctx, meta.Name)
	if err != nil {
		return nil, err
	}
	if len(preds) == 0 && del == nil {
		return nil, nil
	}
	bs := bitset.NewFull(meta.Rows)
	if len(preds) > 0 {
		rd, err := e.Table.Reader(meta.Name)
		if err != nil {
			return nil, err
		}
		cols := map[string]*storage.ColumnData{}
		for _, p := range preds {
			if _, ok := cols[p.col]; ok {
				continue
			}
			var c *storage.ColumnData
			if e.ColCache != nil {
				c, err = e.ColCache.ReadColumnTally(ctx, rd, p.col, tr.ColTally())
			} else {
				c, err = rd.ReadColumnCtx(ctx, p.col)
			}
			if err != nil {
				return nil, err
			}
			cols[p.col] = c
		}
		for row := 0; row < meta.Rows; row++ {
			for _, p := range preds {
				if !p.eval(cols[p.col], row) {
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

// segmentIndex returns the segment's opened index, opening it on first
// use. Handles are keyed by segment name, which is immutable and never
// reused, and nothing query-specific is baked into one (delete bitmaps
// are fetched per query), so a handle stays valid for as long as its
// segment is live: writes never invalidate it, and EvictRetiredIndexes
// drops it once compaction has retired the segment.
func (e *Executor) segmentIndex(ctx context.Context, meta *storage.SegmentMeta, tr *obs.Trace) (index.Index, error) {
	if v, ok := e.localIdx.Load(meta.Name); ok {
		tr.IdxTally().Hit()
		return v.(index.Index), nil
	}
	tr.IdxTally().Miss()
	ix, err := e.Table.OpenIndexCtx(ctx, meta.Name)
	if err != nil {
		return nil, err
	}
	actual, _ := e.localIdx.LoadOrStore(meta.Name, ix)
	return actual.(index.Index), nil
}

// EvictRetiredIndexes drops the handles of segments that are no longer
// in the table's live set; the engine calls it after a compaction
// merged something. A query that opened an index just before its
// segment retired may store the handle after this ran; the next
// eviction collects it.
func (e *Executor) EvictRetiredIndexes() {
	live := map[string]bool{}
	for _, m := range e.Table.Segments() {
		live[m.Name] = true
	}
	e.localIdx.Range(func(k, _ any) bool {
		if !live[k.(string)] {
			e.localIdx.Delete(k)
		}
		return true
	})
}

// LoadedIndexSegments lists, sorted, the segments whose index handle
// the executor currently holds.
func (e *Executor) LoadedIndexSegments() []string {
	var names []string
	e.localIdx.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}

// InvalidateLocalIndexes drops every handle, so the next query reopens
// each segment's index from the blob store — the explicit cold-node
// hook of the cache experiments and the benchmark. The engine's own
// write and compaction paths never call it.
func (e *Executor) InvalidateLocalIndexes() {
	e.localIdx.Range(func(k, _ any) bool {
		e.localIdx.Delete(k)
		return true
	})
}

// --- plan A: brute force -----------------------------------------------------

func (e *Executor) runBruteForce(ctx context.Context, lg *plan.Logical, preds []compiledPred, metas []*storage.SegmentMeta, k, par int, sp *obs.Span, tr *obs.Trace) ([]hit, error) {
	return e.scanSegments(ctx, metas, k, par, sp, func(ctx context.Context, m *storage.SegmentMeta, ssp *obs.Span, emit func(hit)) error {
		ssp.SetInt("rows", int64(m.Rows))
		mSegScans.Inc()
		bs, err := e.predicateBitset(ctx, m, preds, tr)
		if err != nil {
			return err
		}
		s := getScratch()
		defer putScratch(s)
		s.rows = segmentRows(s.rows, bs, m.Rows)
		ssp.SetInt("filtered_rows", int64(len(s.rows)))
		if len(s.rows) == 0 {
			return nil
		}
		rd, err := e.Table.Reader(m.Name)
		if err != nil {
			return err
		}
		vcol, err := e.readRows(ctx, rd, lg.VectorColumn, s.rows, len(s.rows), tr)
		if err != nil {
			return err
		}
		s.cands = nearestRows(s.cands[:0], lg.Metric, lg.Distance.Query, vcol, s.rows, k)
		for _, c := range s.cands {
			emit(hit{meta: m, offset: int(c.ID), dist: c.Dist})
		}
		ssp.SetInt("candidates", int64(len(s.cands)))
		return nil
	})
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

// nearestRows scores fetched rows against q and appends the k nearest
// to dst, identified by segment offset. vcol holds the rows
// contiguously in rows order, so the blocked kernels apply directly;
// L2 additionally abandons rows early against the running k-th
// distance. The kept candidates are bitwise those of a per-row scan
// (see internal/vec), whichever path — solo or a group member — asks.
func nearestRows(dst []index.Candidate, metric vec.Metric, q []float32, vcol *storage.ColumnData, rows []int, k int) []index.Candidate {
	t := index.GetTopK(k)
	defer index.PutTopK(t)
	dim := vcol.Def.Dim
	var dists [scanBlock]float32
	for base := 0; base < len(rows); base += scanBlock {
		br := min(len(rows)-base, scanBlock)
		block := vcol.Vecs[base*dim : (base+br)*dim]
		if metric == vec.L2 {
			thr := float32(math.MaxFloat32)
			if w, ok := t.Worst(); ok {
				thr = w
			}
			vec.L2SquaredBatchThreshold(q, block, dim, dists[:br], thr)
		} else {
			vec.DistancesTo(metric, q, block, dim, dists[:br])
		}
		for j := 0; j < br; j++ {
			t.Push(index.Candidate{ID: int64(rows[base+j]), Dist: dists[j]})
		}
	}
	return t.AppendResults(dst)
}

// --- plan B: pre-filter --------------------------------------------------------

func (e *Executor) runPreFilter(ctx context.Context, lg *plan.Logical, preds []compiledPred, metas []*storage.SegmentMeta, k, par int, params index.SearchParams, sp *obs.Span, tr *obs.Trace) ([]hit, error) {
	return e.scanSegments(ctx, metas, k, par, sp, func(ctx context.Context, m *storage.SegmentMeta, ssp *obs.Span, emit func(hit)) error {
		bs, err := e.predicateBitset(ctx, m, preds, tr)
		if err != nil {
			return err
		}
		if bs != nil && !bs.Any() {
			return nil // nothing qualifies in this segment
		}
		ssp.SetInt("rows", int64(m.Rows))
		mSegScans.Inc()
		ix, err := e.segmentIndex(ctx, m, tr)
		if err != nil {
			return err
		}
		cands, err := ix.SearchWithFilter(lg.Distance.Query, k, bs, params)
		if err != nil {
			return err
		}
		for _, c := range cands {
			emit(hit{meta: m, offset: int(c.ID), dist: c.Dist})
		}
		ssp.SetInt("candidates", int64(len(cands)))
		return nil
	})
}

// --- plan C: post-filter --------------------------------------------------------

// runPostFilter opens an incremental search per segment, filters each
// candidate batch against the scalar predicates (reading only the
// predicate columns of the candidate rows), and iterates until k
// qualifying rows per segment or exhaustion — Figure 2's SearchIterator
// + partial-top-k-before-filter pipeline. Segments run concurrently on
// the worker pool.
func (e *Executor) runPostFilter(ctx context.Context, lg *plan.Logical, preds []compiledPred, metas []*storage.SegmentMeta, k, par int, params index.SearchParams, sp *obs.Span, tr *obs.Trace) ([]hit, error) {
	return e.scanSegments(ctx, metas, k, par, sp, func(ctx context.Context, m *storage.SegmentMeta, ssp *obs.Span, emit func(hit)) error {
		ssp.SetInt("rows", int64(m.Rows))
		mSegScans.Inc()
		hits, err := e.postFilterSegment(ctx, lg, preds, m, k, params, ssp, tr)
		if err != nil {
			return err
		}
		for _, h := range hits {
			emit(h)
		}
		ssp.SetInt("candidates", int64(len(hits)))
		return nil
	})
}

func (e *Executor) postFilterSegment(ctx context.Context, lg *plan.Logical, preds []compiledPred, m *storage.SegmentMeta, k int, params index.SearchParams, ssp *obs.Span, tr *obs.Trace) ([]hit, error) {
	ix, err := e.segmentIndex(ctx, m, tr)
	if err != nil {
		return nil, err
	}
	it, err := index.OpenIterator(ix, lg.Distance.Query, k, params)
	if err != nil {
		return nil, err
	}
	defer it.Close()

	del, err := e.Table.DeleteBitmapCtx(ctx, m.Name)
	if err != nil {
		return nil, err
	}
	rd, err := e.Table.Reader(m.Name)
	if err != nil {
		return nil, err
	}
	// At most k hits leave a segment, and never more than it has rows.
	out := make([]hit, 0, min(k, m.Rows))
	batch := k
	if batch < 16 {
		batch = 16
	}
	// Candidate rows, the candidates they came from and their verdicts
	// live in pooled scratch, reused across iterator batches.
	s := getScratch()
	defer putScratch(s)
	batches := 0
	for len(out) < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cands, err := it.Next(batch)
		if err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			break
		}
		batches++
		// Evaluate predicates only on the candidate rows.
		s.rows, s.cands, s.pass = s.rows[:0], s.cands[:0], s.pass[:0]
		for _, c := range cands {
			if del != nil && del.Test(int(c.ID)) {
				continue
			}
			s.rows = append(s.rows, int(c.ID))
			s.cands = append(s.cands, c)
			s.pass = append(s.pass, true)
		}
		if len(s.rows) == 0 {
			continue
		}
		for _, p := range preds {
			col, err := e.readRows(ctx, rd, p.col, s.rows, len(s.rows), tr)
			if err != nil {
				return nil, err
			}
			for i := range s.rows {
				if s.pass[i] && !p.eval(col, i) {
					s.pass[i] = false
				}
			}
		}
		for i, c := range s.cands {
			if s.pass[i] {
				out = append(out, hit{meta: m, offset: int(c.ID), dist: c.Dist})
				if len(out) == k {
					break
				}
			}
		}
	}
	ssp.SetInt("batches", int64(batches))
	return out, nil
}

// --- range search ---------------------------------------------------------------

func (e *Executor) runRange(ctx context.Context, lg *plan.Logical, preds []compiledPred, metas []*storage.SegmentMeta, par int, params index.SearchParams, mem []*wal.MemSnapshot, sp *obs.Span, tr *obs.Trace) ([]hit, error) {
	radius := internalRadius(lg)
	// Range results are unbounded (k = 0): every in-radius hit must
	// survive the merge before the final truncation.
	all, err := e.scanSegments(ctx, metas, 0, par, sp, func(ctx context.Context, m *storage.SegmentMeta, ssp *obs.Span, emit func(hit)) error {
		bs, err := e.predicateBitset(ctx, m, preds, tr)
		if err != nil {
			return err
		}
		if bs != nil && !bs.Any() {
			return nil
		}
		ssp.SetInt("rows", int64(m.Rows))
		mSegScans.Inc()
		ix, err := e.segmentIndex(ctx, m, tr)
		if err != nil {
			return err
		}
		cands, err := ix.SearchWithRange(lg.Distance.Query, radius, bs, params)
		if err != nil {
			return err
		}
		for _, c := range cands {
			emit(hit{meta: m, offset: int(c.ID), dist: c.Dist})
		}
		ssp.SetInt("candidates", int64(len(cands)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	all = append(all, memRange(lg, preds, mem, radius)...)
	if lg.K > 0 && len(all) > lg.K {
		sortHits(all)
		all = all[:lg.K]
	}
	return all, nil
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

func (e *Executor) runScalar(ctx context.Context, lg *plan.Logical, preds []compiledPred, par int, view lsm.QueryView, tr *obs.Trace) (*Result, error) {
	metas, _ := pruneSegments(view.Segments, preds, e.partitionColumn(), nil, 0, 0)
	sp := tr.Span().Child("scalar-scan")
	sp.SetInt("segments", int64(len(metas)))
	sp.SetInt("mem_snapshots", int64(len(view.Mem)))
	type scalarRow struct {
		meta   *storage.SegmentMeta
		offset int
		sortV  float64
		sortS  string
	}
	// Segments scan concurrently; the positional gather keeps segment
	// order, so the concatenation (and therefore the stable sort and
	// LIMIT below) matches sequential execution exactly.
	perSeg, err := gatherSegments(ctx, metas, par, func(ctx context.Context, _ int, m *storage.SegmentMeta) ([]scalarRow, error) {
		bs, err := e.predicateBitset(ctx, m, preds, tr)
		if err != nil {
			return nil, err
		}
		s := getScratch()
		defer putScratch(s)
		s.rows = segmentRows(s.rows, bs, m.Rows)
		offsets := s.rows
		if len(offsets) == 0 {
			return nil, nil
		}
		var sortCol *storage.ColumnData
		if lg.OrderColumn != "" {
			rd, err := e.Table.Reader(m.Name)
			if err != nil {
				return nil, err
			}
			sortCol, err = e.readRows(ctx, rd, lg.OrderColumn, offsets, len(offsets), tr)
			if err != nil {
				return nil, err
			}
		}
		rows := make([]scalarRow, 0, len(offsets))
		for i, off := range offsets {
			r := scalarRow{meta: m, offset: off}
			if sortCol != nil {
				switch sortCol.Def.Type {
				case storage.Int64Type, storage.DateTimeType:
					r.sortV = float64(sortCol.Ints[i])
				case storage.Float64Type:
					r.sortV = sortCol.Floats[i]
				case storage.StringType:
					r.sortS = sortCol.Strs[i]
				}
			}
			rows = append(rows, r)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []scalarRow
	for _, rs := range perSeg {
		rows = append(rows, rs...)
	}
	// Unflushed rows from the memtable snapshots, appended after every
	// segment's rows (their synthetic names sort last) so unordered
	// LIMIT results stay deterministic.
	for _, snap := range view.Mem {
		mMemScans.Inc()
		var sortCol *storage.ColumnData
		if lg.OrderColumn != "" {
			sortCol = snap.Col(lg.OrderColumn)
		}
		for row := 0; row < snap.Rows(); row++ {
			if !snap.Alive(row) || !memPass(preds, snap, row) {
				continue
			}
			r := scalarRow{meta: snap.Meta, offset: row}
			if sortCol != nil {
				switch sortCol.Def.Type {
				case storage.Int64Type, storage.DateTimeType:
					r.sortV = float64(sortCol.Ints[row])
				case storage.Float64Type:
					r.sortV = sortCol.Floats[row]
				case storage.StringType:
					r.sortS = sortCol.Strs[row]
				}
			}
			rows = append(rows, r)
		}
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
		hits[i] = hit{meta: r.meta, offset: r.offset, dist: float32(math.NaN())}
	}
	sp.SetInt("hits", int64(len(hits)))
	sp.End()
	return e.assemble(ctx, lg, hits, par, view, tr.Span(), tr)
}

// --- output assembly ---------------------------------------------------------------

// readRows fetches rows of one column, through the adaptive column
// cache when configured.
func (e *Executor) readRows(ctx context.Context, rd *storage.SegmentReader, col string, rows []int, queryRows int, tr *obs.Trace) (*storage.ColumnData, error) {
	if e.ColCache != nil {
		return e.ColCache.ReadRowsTally(ctx, rd, col, rows, queryRows, tr.ColTally())
	}
	return rd.ReadRowsCtx(ctx, col, rows)
}

// assemble fetches the projection columns for the final hits and
// builds result rows in hit order. Column fetches fan out per segment
// on the worker pool; memtable hits read straight from their frozen
// snapshots.
func (e *Executor) assemble(ctx context.Context, lg *plan.Logical, hits []hit, par int, view lsm.QueryView, sp *obs.Span, tr *obs.Trace) (*Result, error) {
	asp := sp.Child("assemble")
	asp.SetInt("rows", int64(len(hits)))
	defer asp.End()
	cols := lg.Projection
	if lg.Star {
		cols = nil
		for _, c := range e.Table.Schema().Columns {
			cols = append(cols, c.Name)
		}
		if lg.DistAlias != "" {
			cols = append(cols, lg.DistAlias)
		}
	}
	res := &Result{Columns: cols}
	if len(hits) == 0 {
		return res, nil
	}
	// Group hits by segment in first-appearance order, fetch each needed
	// column once per segment (concurrently across segments), then emit
	// in hit order. Everything is positional — at[i] says which segment
	// hit i belongs to and where its row sits in that segment's fetch —
	// so no map is built per query.
	type segFetch struct {
		meta *storage.SegmentMeta
		n    int                   // hits in this segment
		rows []int                 // their row offsets, in hit order
		cols []*storage.ColumnData // one per projection column (nil for the distance alias)
	}
	type place struct{ seg, pos int }
	segs := make([]segFetch, 0, 8)
	at := make([]place, len(hits))
	for i, h := range hits {
		si := -1
		for j := len(segs) - 1; j >= 0; j-- { // newest first: hits grouped by segment match at once
			if segs[j].meta.Name == h.meta.Name {
				si = j
				break
			}
		}
		if si < 0 {
			si = len(segs)
			segs = append(segs, segFetch{meta: h.meta})
		}
		at[i] = place{si, segs[si].n}
		segs[si].n++
	}
	offsets := make([]int, len(hits))
	fetched := make([]*storage.ColumnData, len(segs)*len(cols))
	off := 0
	for si := range segs {
		segs[si].rows = offsets[off : off+segs[si].n]
		segs[si].cols = fetched[si*len(cols) : (si+1)*len(cols)]
		off += segs[si].n
	}
	for i, h := range hits {
		segs[at[i].seg].rows[at[i].pos] = h.offset
	}
	memSnaps := memSnapshotIndex(view.Mem)
	err := poolRun(ctx, len(segs), par, func(ctx context.Context, si int) error {
		sf := &segs[si]
		snap, inMem := memSnaps[sf.meta.Name]
		var rd *storage.SegmentReader
		if !inMem {
			var err error
			if rd, err = e.Table.Reader(sf.meta.Name); err != nil {
				return err
			}
		}
		for ci, c := range cols {
			if c == lg.DistAlias && lg.DistAlias != "" {
				continue
			}
			if inMem {
				if sf.cols[ci] = memFetchColumn(snap, c, sf.rows); sf.cols[ci] == nil {
					return fmt.Errorf("%w: unknown column %q", ErrInvalidQuery, c)
				}
				continue
			}
			cd, err := e.readRows(ctx, rd, c, sf.rows, len(hits), tr)
			if err != nil {
				return err
			}
			sf.cols[ci] = cd
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// One backing array of cells, cut into rows (capacity-limited, so a
	// caller appending to one row cannot write into the next).
	nc := len(cols)
	cells := make([]any, len(hits)*nc)
	res.Rows = make([][]any, len(hits))
	for i, h := range hits {
		row := cells[i*nc : (i+1)*nc : (i+1)*nc]
		sf := &segs[at[i].seg]
		for ci, c := range cols {
			if c == lg.DistAlias && lg.DistAlias != "" {
				row[ci] = outputDistance(lg.Metric, h.dist)
				continue
			}
			row[ci] = columnValue(sf.cols[ci], at[i].pos)
		}
		res.Rows[i] = row
	}
	return res, nil
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
