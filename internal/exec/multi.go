package exec

import (
	"context"
	"fmt"
	"sync"
	"time"

	"blendhouse/internal/index"
	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/internal/storage"
)

// Shared-scan group execution: the batching scheduler hands a set of
// compatible vector queries to RunGroup, which walks each segment ONCE
// — one predicate bitset, one delete-bitmap read, one index load, one
// vector-column read — and services every member's query vector against
// that shared per-segment state with its own top-k heap. Every
// member-dependent step (distance computation, heap, final sort +
// truncation, projection values) is computed exactly as solo execution
// would, so each member's result is byte-identical to running it alone;
// only the member-independent I/O and setup are amortized.
//
// Isolation: one member's context firing or its search failing never
// poisons the group. Shared-step failures (storage, compile) fan out to
// every member, preferring a member's own context error when both
// fired.

// GroupQuery is one member of a shared-scan group.
type GroupQuery struct {
	// Ctx is the member's own context (cancellation/deadline). nil means
	// the group context governs the member.
	Ctx  context.Context
	Plan *plan.Physical
	Opts RunOptions
}

// GroupResult is one member's outcome, positionally matching the input.
type GroupResult struct {
	Res *Result
	Err error
}

// RunGroup executes a group of compatible plans over one shared
// per-segment pass. Compatibility (same strategy, vector column,
// metric, scalar predicates, range-kind) is the caller's contract; an
// incompatible or unshareable group (a single member, plan C)
// degrades to per-member solo execution, never to a wrong answer.
func (e *Executor) RunGroup(gctx context.Context, qs []GroupQuery) []GroupResult {
	out := make([]GroupResult, len(qs))
	if len(qs) == 0 {
		return out
	}
	if gctx == nil {
		gctx = context.Background()
	}
	if len(qs) == 1 || !groupCompatible(qs) {
		for i, q := range qs {
			ctx := q.Ctx
			if ctx == nil {
				ctx = gctx
			}
			res, err := e.RunWith(ctx, q.Plan, q.Opts)
			out[i] = GroupResult{Res: res, Err: err}
		}
		return out
	}

	n := len(qs)
	lg0 := qs[0].Plan.Logical
	strategy := qs[0].Plan.Strategy

	mctx := make([]context.Context, n)
	par := 0
	for i, q := range qs {
		mctx[i] = q.Ctx
		if mctx[i] == nil {
			mctx[i] = gctx
		}
		if p := e.parallelism(q.Opts.MaxParallelism); p > par {
			par = p
		}
	}

	var errMu sync.Mutex
	memberErr := make([]error, n)
	setErr := func(i int, err error) {
		errMu.Lock()
		if memberErr[i] == nil {
			memberErr[i] = err
		}
		errMu.Unlock()
	}
	live := func(i int) bool {
		errMu.Lock()
		defer errMu.Unlock()
		return memberErr[i] == nil
	}
	// checkMember gates per-member work: a fired member context records
	// the member's own error and skips its remaining shares of the scan.
	checkMember := func(i int) bool {
		if err := mctx[i].Err(); err != nil {
			setErr(i, err)
			return false
		}
		return live(i)
	}
	// failAll delivers a shared-step failure to every member that has no
	// error of its own, preferring the member's own context error so a
	// canceled member reports cancellation, not the group's fate.
	failAll := func(shared error) []GroupResult {
		for i := range out {
			errMu.Lock()
			err := memberErr[i]
			errMu.Unlock()
			if err == nil {
				if cerr := mctx[i].Err(); cerr != nil {
					err = cerr
				} else {
					err = shared
				}
			}
			out[i] = GroupResult{Err: err}
		}
		return out
	}

	preds, err := compilePredicates(e.Table.Schema(), lg0.ScalarPreds)
	if err != nil {
		return failAll(err)
	}
	// One consistent view for the whole group, exactly like one view per
	// solo query: every member sees the same segments + snapshots.
	view := e.Table.View()

	ks := make([]int, n)
	params := make([]index.SearchParams, n)
	radii := make([]float32, n)
	for i, q := range qs {
		lg := q.Plan.Logical
		k := lg.K
		if k <= 0 {
			k = 100
		}
		ks[i] = k
		params[i] = lg.Params.WithDefaults(k)
		if lg.Range != nil {
			radii[i] = internalRadius(lg)
		}
	}
	mVecQueries.Add(int64(n))
	switch strategy {
	case plan.BruteForce:
		mPlanBrute.Add(int64(n))
	case plan.PreFilter:
		mPlanPre.Add(int64(n))
	}

	// Memtable snapshots: per-member brute scan, identical to the solo
	// mem pass (snapshots are tiny and have no shareable I/O).
	memHits := make([][]hit, n)
	if len(view.Mem) > 0 {
		for i, q := range qs {
			if !checkMember(i) {
				continue
			}
			lg := q.Plan.Logical
			if lg.Range != nil {
				memHits[i] = memRange(lg, preds, view.Mem, radii[i])
			} else {
				memHits[i] = memTopK(lg, preds, view.Mem, ks[i])
			}
		}
	}

	metas, _ := pruneSegments(view.Segments, preds, e.partitionColumn(), nil, 0, 0)

	// The shared pass: one closure invocation per segment, returning the
	// per-member candidate lists for that segment.
	perSeg, sharedErr := gatherSegments(gctx, metas, par, func(ctx context.Context, _ int, m *storage.SegmentMeta) ([][]hit, error) {
		segStart := obs.Now()
		defer func() {
			if e.Stats != nil {
				e.Stats.SegLatency.Observe(time.Since(segStart).Seconds())
			}
		}()
		mSegScans.Inc()
		res := make([][]hit, n)
		bs, err := e.predicateBitset(ctx, m, preds, nil)
		if err != nil {
			return nil, err
		}

		switch {
		case lg0.Range != nil:
			if bs != nil && !bs.Any() {
				return res, nil
			}
			ix, err := e.segmentIndex(ctx, m, nil)
			if err != nil {
				return nil, err
			}
			for i, q := range qs {
				if !checkMember(i) {
					continue
				}
				cands, err := ix.SearchWithRange(q.Plan.Logical.Distance.Query, radii[i], bs, params[i])
				if err != nil {
					setErr(i, err)
					continue
				}
				res[i] = candsToHits(m, cands)
			}
		case strategy == plan.BruteForce:
			s := getScratch()
			defer putScratch(s)
			s.rows = segmentRows(s.rows, bs, m.Rows)
			if len(s.rows) == 0 {
				return res, nil
			}
			rd, err := e.Table.Reader(m.Name)
			if err != nil {
				return nil, err
			}
			vcol, err := e.readRows(ctx, rd, lg0.VectorColumn, s.rows, len(s.rows), nil)
			if err != nil {
				return nil, err
			}
			for i, q := range qs {
				if !checkMember(i) {
					continue
				}
				lg := q.Plan.Logical
				s.cands = nearestRows(s.cands[:0], lg.Metric, lg.Distance.Query, vcol, s.rows, ks[i])
				res[i] = candsToHits(m, s.cands)
			}
		case strategy == plan.PreFilter:
			if bs != nil && !bs.Any() {
				return res, nil
			}
			ix, err := e.segmentIndex(ctx, m, nil)
			if err != nil {
				return nil, err
			}
			for i, q := range qs {
				if !checkMember(i) {
					continue
				}
				cands, err := ix.SearchWithFilter(q.Plan.Logical.Distance.Query, ks[i], bs, params[i])
				if err != nil {
					setErr(i, err)
					continue
				}
				res[i] = candsToHits(m, cands)
			}
		default:
			return nil, fmt.Errorf("exec: unknown strategy %v", strategy)
		}
		return res, nil
	})
	if sharedErr != nil {
		return failAll(sharedErr)
	}

	// Per-member merge: concatenate the member's per-segment candidates
	// with its memtable hits, then sort + truncate with the same total
	// order solo execution uses — byte-identical final hit sets.
	hitsPer := make([][]hit, n)
	for i, q := range qs {
		if !live(i) {
			continue
		}
		lg := q.Plan.Logical
		var all []hit
		for _, seg := range perSeg {
			all = append(all, seg[i]...)
		}
		all = append(all, memHits[i]...)
		if lg.Range != nil {
			if lg.K > 0 && len(all) > lg.K {
				sortHits(all)
				all = all[:lg.K]
			}
			sortHits(all)
		} else {
			sortHits(all)
			if len(all) > ks[i] {
				all = all[:ks[i]]
			}
		}
		hitsPer[i] = all
	}

	results, aerr := e.assembleGroup(gctx, qs, hitsPer, par, view, live, setErr)
	if aerr != nil {
		return failAll(aerr)
	}
	for i := range qs {
		errMu.Lock()
		err := memberErr[i]
		errMu.Unlock()
		if err != nil {
			out[i] = GroupResult{Err: err}
			continue
		}
		out[i] = GroupResult{Res: results[i]}
	}
	return out
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

func candsToHits(m *storage.SegmentMeta, cands []index.Candidate) []hit {
	out := make([]hit, len(cands))
	for i, c := range cands {
		out[i] = hit{meta: m, offset: int(c.ID), dist: c.Dist}
	}
	return out
}

// assembleGroup materializes every live member's projection with one
// column fetch per (segment, column) across the whole group: row
// offsets are unioned per segment, each needed column is read once, and
// members pick their rows out of the shared ColumnData. Per-member
// values are exactly what solo assembly would produce for the same
// hits. Column-level failures are attributed to the members that
// requested the column; only a group-context failure is shared.
func (e *Executor) assembleGroup(gctx context.Context, qs []GroupQuery, hitsPer [][]hit, par int, view lsm.QueryView, live func(int) bool, setErr func(int, error)) ([]*Result, error) {
	n := len(qs)
	colsPer := make([][]string, n)
	for i, q := range qs {
		lg := q.Plan.Logical
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
		colsPer[i] = cols
	}

	// Per-segment fetch plan: union of row offsets and of every live
	// member's fetch columns (its projection minus its own distance
	// alias), remembering who asked for each column for error
	// attribution.
	type segPlan struct {
		meta    *storage.SegmentMeta
		offsets []int
		pos     map[int]int      // row offset -> position in offsets
		owners  map[string][]int // column -> member indices
		colSeq  []string         // columns in first-requested order
	}
	plans := map[string]*segPlan{}
	var order []*segPlan
	for i := range qs {
		if !live(i) {
			continue
		}
		lg := qs[i].Plan.Logical
		var fetchCols []string
		for _, c := range colsPer[i] {
			if c == lg.DistAlias && lg.DistAlias != "" {
				continue
			}
			fetchCols = append(fetchCols, c)
		}
		seen := map[string]bool{}
		for _, h := range hitsPer[i] {
			p := plans[h.meta.Name]
			if p == nil {
				p = &segPlan{meta: h.meta, pos: map[int]int{}, owners: map[string][]int{}}
				plans[h.meta.Name] = p
				order = append(order, p)
			}
			if _, ok := p.pos[h.offset]; !ok {
				p.pos[h.offset] = len(p.offsets)
				p.offsets = append(p.offsets, h.offset)
			}
			if !seen[h.meta.Name] {
				seen[h.meta.Name] = true
				for _, c := range fetchCols {
					if _, ok := p.owners[c]; !ok {
						p.colSeq = append(p.colSeq, c)
					}
					p.owners[c] = append(p.owners[c], i)
				}
			}
		}
	}

	metas := make([]*storage.SegmentMeta, len(order))
	for i, p := range order {
		metas[i] = p.meta
	}
	memSnaps := memSnapshotIndex(view.Mem)
	fetched := make([]map[string]*storage.ColumnData, len(order))
	_, gerr := gatherSegments(gctx, metas, par, func(ctx context.Context, i int, m *storage.SegmentMeta) (struct{}, error) {
		p := order[i]
		got := make(map[string]*storage.ColumnData, len(p.colSeq))
		if snap, ok := memSnaps[m.Name]; ok {
			for _, c := range p.colSeq {
				cd := memFetchColumn(snap, c, p.offsets)
				if cd == nil {
					for _, mi := range p.owners[c] {
						setErr(mi, fmt.Errorf("%w: unknown column %q", ErrInvalidQuery, c))
					}
					continue
				}
				got[c] = cd
			}
			fetched[i] = got
			return struct{}{}, nil
		}
		rd, err := e.Table.Reader(m.Name)
		if err != nil {
			for _, owners := range p.owners {
				for _, mi := range owners {
					setErr(mi, err)
				}
			}
			return struct{}{}, nil
		}
		for _, c := range p.colSeq {
			cd, err := e.readRows(ctx, rd, c, p.offsets, len(p.offsets), nil)
			if err != nil {
				for _, mi := range p.owners[c] {
					setErr(mi, err)
				}
				continue
			}
			got[c] = cd
		}
		fetched[i] = got
		return struct{}{}, nil
	})
	if gerr != nil {
		return nil, gerr
	}
	segCols := make(map[string]map[string]*storage.ColumnData, len(order))
	for i, p := range order {
		segCols[p.meta.Name] = fetched[i]
	}

	results := make([]*Result, n)
	for i := range qs {
		if !live(i) {
			continue
		}
		lg := qs[i].Plan.Logical
		res := &Result{Columns: colsPer[i]}
		ok := true
		for _, h := range hitsPer[i] {
			row := make([]any, len(colsPer[i]))
			cols := segCols[h.meta.Name]
			for ci, c := range colsPer[i] {
				if c == lg.DistAlias && lg.DistAlias != "" {
					row[ci] = outputDistance(lg.Metric, h.dist)
					continue
				}
				cd := cols[c]
				if cd == nil {
					ok = false // fetch failed; error already attributed
					break
				}
				row[ci] = columnValue(cd, plans[h.meta.Name].pos[h.offset])
			}
			if !ok {
				break
			}
			res.Rows = append(res.Rows, row)
		}
		if ok && live(i) {
			results[i] = res
		}
	}
	return results, nil
}
