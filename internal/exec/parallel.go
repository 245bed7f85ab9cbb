package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blendhouse/internal/lsm"
	"blendhouse/internal/obs"
)

// This file is the intra-query parallelism engine (paper §III-IV: a
// hybrid query fans out over many immutable segments). Per-segment
// work runs on a bounded pool of goroutines sized by the effective
// parallelism; results are gathered either positionally (scalar scans,
// assembly) or through per-goroutine top-k heaps merged at the barrier
// (vector scans). Both gathers are deterministic: positional results
// keep segment order, and heap merges are re-sorted by the full
// (dist, segment, offset) order, so a query returns byte-identical
// results at any parallelism degree.

// parallelism resolves the effective fan-out degree: per-query
// override, then the executor default, then GOMAXPROCS.
func (e *Executor) parallelism(override int) int {
	p := override
	if p <= 0 {
		p = e.MaxParallelism
	}
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Parallelism exposes the effective fan-out degree (0 = default) for
// EXPLAIN and diagnostics.
func (e *Executor) Parallelism(override int) int { return e.parallelism(override) }

// poolRun executes fn(i) for every i in [0,n) on at most par
// goroutines, cancelling remaining work on the first error. When two
// goroutines fail concurrently the error of the lowest index wins, so
// failures are reported deterministically. It always waits for all
// spawned goroutines before returning — a cancelled query never leaks
// workers.
func poolRun(ctx context.Context, n, par int, fn func(ctx context.Context, i int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next    atomic.Int64
		done    atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex
		errIdx  = -1
		poolErr error
	)
	fail := func(i int, err error) {
		// A cancellation observed while the parent context is still
		// alive is a side-effect of our own cancel() after an earlier
		// failure — never let it mask the root cause.
		induced := ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
		if !induced {
			mu.Lock()
			if errIdx < 0 || i < errIdx {
				errIdx, poolErr = i, err
			}
			mu.Unlock()
		}
		cancel()
	}
	wg.Add(par)
	for g := 0; g < par; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := gctx.Err(); err != nil {
					fail(i, err)
					return
				}
				if err := fn(gctx, i); err != nil {
					fail(i, err)
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if poolErr == nil && int(done.Load()) < n {
		// Everything that failed was an induced cancellation, but work
		// is incomplete — the parent context must have fired.
		poolErr = ctx.Err()
	}
	return poolErr
}

// gatherSegments runs fn over each segment concurrently and returns
// the per-segment results in input order — the positional gather used
// where downstream code depends on segment order (scalar scans,
// pre-filter bitsets, assembly).
func gatherSegments[T any](ctx context.Context, segs []*lsm.Segment, par int, fn func(ctx context.Context, i int, s *lsm.Segment) (T, error)) ([]T, error) {
	out := make([]T, len(segs))
	err := poolRun(ctx, len(segs), par, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i, segs[i])
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scanSegments runs scanSegment over each segment on the worker pool
// and leaves each member's hits in its hits. A scan pushes a member's
// hits into its worker's bounded top-k heap for that member (cap <= 0
// keeps everything, for range scans), so hits never materialize per
// segment; the heaps are concatenated at the barrier and the caller
// re-sorts. On a traced run each segment gets a child span under sp,
// which is annotated with the parallelism degree and the per-segment
// wall overlap (sum of segment spans / elapsed wall).
func (e *Executor) scanSegments(ctx context.Context, r *run, segs []*lsm.Segment, sp *obs.Span) error {
	par := max(min(r.par, len(segs)), 1)
	n := len(r.members)
	start := obs.Now()
	heaps := make([]hitHeap, par*n)
	var segWall atomic.Int64
	slot := make(chan int, par)
	for g := 0; g < par; g++ {
		slot <- g
	}
	err := poolRun(ctx, len(segs), par, func(ctx context.Context, i int) error {
		g := <-slot
		defer func() { slot <- g }()
		s := segScan{seg: segs[i], heaps: heaps[g*n : (g+1)*n]}
		if sp != nil {
			s.span = sp.Child("segment " + s.seg.Meta.Name)
		}
		segStart := obs.Now()
		err := e.scanSegment(ctx, r, &s)
		s.span.End()
		segWall.Add(int64(s.span.Duration()))
		if e.Stats != nil {
			e.Stats.SegLatency.Observe(time.Since(segStart).Seconds())
		}
		return err
	})
	if sp != nil {
		sp.SetInt("parallelism", int64(par))
		if wall := time.Since(start); wall > 0 && len(segs) > 1 {
			sp.SetFloat("wall_overlap", float64(segWall.Load())/float64(wall))
		}
	}
	if err != nil {
		return err
	}
	for i := range r.members {
		mb := &r.members[i]
		mb.hits = mb.hits[:0]
		for g := 0; g < par; g++ {
			mb.hits = append(mb.hits, heaps[g*n+i].hits...)
		}
	}
	return nil
}

// hitWorse reports whether a ranks strictly after b in the
// deterministic result order: greater distance first, ties broken by
// segment name then row offset. This is the same total order sortHits
// uses, which is what keeps parallel merges byte-identical to
// sequential execution.
func hitWorse(a, b hit) bool {
	if a.dist != b.dist {
		return a.dist > b.dist
	}
	if a.seg != b.seg {
		return a.seg.Meta.Name > b.seg.Meta.Name
	}
	return a.offset > b.offset
}

// hitHeap is a bounded top-k accumulator: a binary max-heap under
// hitWorse (worst kept hit at the root), so a full heap evicts exactly
// the globally worst element and the surviving k are identical to what
// a full sort-and-truncate would keep.
type hitHeap struct {
	hits []hit
}

// push inserts h, evicting the worst element when the heap already
// holds cap hits. cap <= 0 means unbounded.
func (hp *hitHeap) push(h hit, cap int) {
	if cap > 0 && len(hp.hits) >= cap {
		if !hitWorse(hp.hits[0], h) {
			return // h is no better than the current worst
		}
		hp.hits[0] = h
		hp.siftDown(0)
		return
	}
	hp.hits = append(hp.hits, h)
	hp.siftUp(len(hp.hits) - 1)
}

func (hp *hitHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !hitWorse(hp.hits[i], hp.hits[parent]) {
			return
		}
		hp.hits[i], hp.hits[parent] = hp.hits[parent], hp.hits[i]
		i = parent
	}
}

func (hp *hitHeap) siftDown(i int) {
	n := len(hp.hits)
	for {
		worst := i
		if l := 2*i + 1; l < n && hitWorse(hp.hits[l], hp.hits[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && hitWorse(hp.hits[r], hp.hits[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		hp.hits[i], hp.hits[worst] = hp.hits[worst], hp.hits[i]
		i = worst
	}
}
