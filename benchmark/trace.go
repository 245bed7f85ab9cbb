package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"blendhouse/internal/bitset"
	"blendhouse/internal/core"
	"blendhouse/internal/exec"
	"blendhouse/internal/index"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
	"blendhouse/internal/vec"
)

// The traced pass measures every layer from outside: it never reads a
// span the program recorded, it times calls into public entry points
// and takes differences — a staircase. Each replayed statement is run
//
//	client.Query                       (serve workloads)
//	  └ QueryResponse.ElapsedMS        server handler wall
//	Engine.Query(…, DisableBatch)      the engine alone
//	sql.Parse · Planner.Plan · Executor.Run
//	Table.OpenIndex · Index.SearchWithFilter   per segment the statement touches
//	vec.L2SquaredBatch                 over the rows a brute-force plan scans
//
// and a layer's self time is its step minus the steps below it. Store
// time is seen by the two timingStores around the tier. Where steps
// disagree (a lower step measured longer than the one above it) the
// difference is reported as bench.unattributed_share, not hidden.

// span is one bench-owned interval. Spans of one replayed statement
// share Stmt; Parent is the span that caused it (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Stmt    int    `json:"stmt"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the replay began
	EndNS   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, parent, stmt int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Stmt: stmt, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	return id
}

// stairSums accumulates, over the replayed statements, the wall time
// of each step (ns).
type stairSums struct {
	n                              int
	wall0, elapsed, form           float64 // serve step
	tq, tqTop, tqBot               float64 // Engine.Query; wall covered by reads above the tier / at the store
	parse, planT                   float64
	run, runTop                    float64 // Executor.Run at the shipped parallelism
	run1, run1Top                  float64 // Executor.Run at parallelism 1: children add up
	open, openTop, search, vecNS   float64
	opens, searches                int
	runByClass                     map[int][]float64
	insertParseNS, insertParseRows float64
}

// storeCounts returns the counters of the timing stores above the tier
// and at the store (zero where the workload has none).
func (r *runner) storeCounts() (c [2]storeCounts) {
	if r.sys.top != nil {
		c[0] = r.sys.top.counts()
	}
	if r.sys.bottom != nil {
		c[1] = r.sys.bottom.counts()
	}
	return c
}

// timed runs fn and returns its wall time plus the wall time covered
// by store reads seen above the tier and at the store while it ran.
func (r *runner) timed(tr *tracer, name string, parent, stmt int, fn func()) (id int, wall, top, bot float64) {
	for _, ts := range []*timingStore{r.sys.top, r.sys.bottom} {
		if ts != nil {
			ts.record(true)
		}
	}
	start := time.Now()
	fn()
	end := time.Now()
	id = tr.add(name, parent, stmt, start, end)
	reads := func(ts *timingStore) float64 {
		if ts == nil {
			return 0
		}
		iv := ts.record(false)
		for _, x := range iv {
			tr.add(ts.name+".get", id, stmt, x.start, x.end)
		}
		return float64(covered(iv).Nanoseconds())
	}
	top, bot = reads(r.sys.top), reads(r.sys.bottom)
	if r.sys.top == nil {
		top = bot // no tier: everything above the store is the store
	}
	return id, float64(end.Sub(start).Nanoseconds()), top, bot
}

// replay walks the first statements of the cycle down the staircase,
// serially, with nothing else running. Within a block of statements it
// goes step by step, not statement by statement — the whole block
// through the client, then the whole block through Engine.Query, and
// so on — so that each step runs in the cache state (CPU caches, blob
// tier) that a stream of such calls leaves behind, not in the one the
// step above just left.
func (r *runner) replay() (*stairSums, *tracer, error) {
	sys, in, sp := r.sys, r.in, r.in.sp
	ctx := context.Background()
	eng := sys.engine
	table := eng.Table(tableName)
	ex := eng.Executor(tableName)
	tr := &tracer{t0: time.Now()}
	s := &stairSums{runByClass: map[int][]float64{}}
	invalidate := func() {
		if sp.cold {
			ex.InvalidateLocalIndexes()
		}
	}
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	n := r.rc.replay
	var steps []func(i int, q *query)
	step := func(fn func(i int, q *query)) { steps = append(steps, fn) }
	parent := make([]int, n) // per statement, the span the engine call hangs under

	if sp.serve {
		hAdm := obs.Default().Histogram("bh.server.admission.queue_wait")
		hForm := obs.Default().Histogram("bh.batch.formation_wait")
		step(func(i int, q *query) {
			adm0, form0 := hAdm.Sum(), hForm.Sum()
			var res response
			id, wall, _, _ := r.timed(tr, "client.query", 0, i, func() {
				var err error
				res, err = sys.query(ctx, 0, q.sql)
				fail(err)
			})
			adm, form := hAdm.Sum()-adm0, hForm.Sum()-form0
			elapsed := time.Duration(res.elapsedMS * 1e6)
			s.wall0 += wall
			s.elapsed += float64(elapsed.Nanoseconds())
			s.form += float64(form.Nanoseconds())
			// the handler's interval is known only by its length; centre it
			c := tr.spans[id-1]
			hs := tr.t0.Add(time.Duration(c.StartNS+c.EndNS)/2 - elapsed/2)
			parent[i] = tr.add("server.handler", id, i, hs, hs.Add(elapsed))
			tr.add("server.admission_wait", parent[i], i, hs, hs.Add(adm))
			tr.add("batch.formation_wait", parent[i], i, hs.Add(adm), hs.Add(adm+form))
		})
	}

	step(func(i int, q *query) {
		invalidate()
		id, tq, top, bot := r.timed(tr, "core.query", parent[i], i, func() {
			_, err := eng.Query(ctx, q.sql, core.QueryOptions{DisableBatch: true})
			fail(err)
		})
		parent[i] = id
		s.tq, s.tqTop, s.tqBot = s.tq+tq, s.tqTop+top, s.tqBot+bot
	})

	plans := make([]*plan.Physical, n)
	step(func(i int, q *query) {
		var sel *sql.Select
		_, w, _, _ := r.timed(tr, "sql.parse", parent[i], i, func() {
			st, err := sql.Parse(q.sql)
			fail(err)
			sel, _ = st.(*sql.Select)
		})
		s.parse += w
		_, w, _, _ = r.timed(tr, "plan.plan", parent[i], i, func() {
			var err error
			plans[i], err = eng.Planner().Plan(sel, table)
			fail(err)
		})
		s.planT += w
	})

	step(func(i int, q *query) {
		invalidate()
		_, w, top, _ := r.timed(tr, "exec.run", parent[i], i, func() {
			_, err := ex.Run(ctx, plans[i])
			fail(err)
		})
		s.run, s.runTop = s.run+w, s.runTop+top
		s.runByClass[q.class] = append(s.runByClass[q.class], w/1e6)
	})

	step(func(i int, q *query) {
		invalidate()
		id, w, top, _ := r.timed(tr, "exec.run.serial", parent[i], i, func() {
			_, err := ex.RunWith(ctx, plans[i], exec.RunOptions{MaxParallelism: 1})
			fail(err)
		})
		parent[i] = id
		s.run1, s.run1Top = s.run1+w, s.run1Top+top
	})

	// Below exec: what plan A hands the distance kernel, or what plans
	// B/C hand each segment's index. A warm node keeps its index handles,
	// so each segment is opened once and searched on the same handle
	// thereafter; a cold node opens (and times) a fresh one every time.
	opened := map[string]index.Index{}
	step(func(i int, q *query) {
		qvec := in.ds.Queries.Row(q.qv)
		ph := plans[i]
		if ph.Strategy == plan.BruteForce {
			var data []float32
			for id := 0; id < sp.rows; id++ {
				if !q.pred || (in.ints[id] >= q.lo && in.ints[id] <= q.hi) {
					data = append(data, in.ds.Vectors.Row(id)...)
				}
			}
			out := make([]float32, len(data)/sp.dim)
			_, w, _, _ := r.timed(tr, "vec.l2_batch", parent[i], i, func() {
				vec.L2SquaredBatch(qvec, data, sp.dim, out)
			})
			s.vecNS += w
			return
		}
		params := ph.Logical.Params.WithDefaults(topK)
		for _, m := range table.Segments() {
			if q.pred && m.PruneByInt(sp.intCol, q.lo, q.hi) {
				continue
			}
			ix := opened[m.Name]
			if ix == nil {
				_, w, top, _ := r.timed(tr, "index.open", parent[i], i, func() {
					var err error
					ix, err = table.OpenIndex(m.Name)
					fail(err)
				})
				if firstErr != nil {
					return
				}
				s.open, s.openTop, s.opens = s.open+w, s.openTop+top, s.opens+1
				if !sp.cold {
					opened[m.Name] = ix
					_, err := ix.SearchWithFilter(qvec, topK, nil, params) // the first search sizes the handle's scratch
					fail(err)
				}
			}
			var filter index.Filter
			if ph.Strategy == plan.PreFilter && q.pred {
				filter = in.segmentFilter(m, q)
			}
			_, w, _, _ := r.timed(tr, "index.search", parent[i], i, func() {
				_, err := ix.SearchWithFilter(qvec, topK, filter, params)
				fail(err)
			})
			s.search, s.searches = s.search+w, s.searches+1
		}
	})
	// Run the steps over one block of statements after another, so a
	// change in the machine's speed part-way (it changes by the minute,
	// see NOISE.md) reaches every step alike instead of one step only.
	const block = 25
	budget := 6 * time.Second
	if r.rc.smoke {
		budget = time.Second
	}
	for lo := 0; lo < n && firstErr == nil && time.Since(tr.t0) < budget; lo += block {
		hi := lo + block
		if hi > n {
			hi = n
		}
		for _, fn := range steps {
			for i := lo; i < hi && firstErr == nil; i++ {
				fn(i, &in.queries[i%len(in.queries)])
			}
		}
		s.n = hi
	}

	// INSERT text parse cost, per row (set-up and the writer both pay it)
	for i := 0; i < 4 && i < len(in.loads[0]); i++ {
		stmt := in.loads[0][i]
		t0 := time.Now()
		_, err := sql.Parse(stmt)
		s.insertParseNS += float64(time.Since(t0).Nanoseconds())
		s.insertParseRows += float64(strings.Count(stmt, "(")) // one "(" per row, none elsewhere
		fail(err)
	}
	return s, tr, firstErr
}

// segmentFilter rebuilds, from the benchmark's own copy of the int
// column, the bitset a pre-filter plan hands the index for segment m.
// Set-up and the paced writer insert ids in order, so a segment's row
// offset o is id minID+o; any other layout gets no filter.
func (in *inputs) segmentFilter(m *storage.SegmentMeta, q *query) index.Filter {
	lo, hi := m.MinInt["id"], m.MaxInt["id"]
	if int(hi-lo)+1 != m.Rows {
		return nil
	}
	b := bitset.New(m.Rows)
	for o := 0; o < m.Rows; o++ {
		if v := in.ints[lo+int64(o)]; v >= q.lo && v <= q.hi {
			b.Set(o)
		}
	}
	return b
}

// vecProbe times the blocked L2 kernels directly over the rows set-up
// loaded, at the workload's dimension: ns per row, plain and with the
// early-abandon bound a warm top-10 heap would supply.
func (in *inputs) vecProbe() (plain, threshold float64) {
	sp := in.sp
	data := in.ds.Vectors.Data[:sp.rows*sp.dim]
	out := make([]float32, sp.rows)
	q := in.ds.Queries.Row(0)
	vec.L2SquaredBatch(q, data, sp.dim, out)
	sorted := append([]float32(nil), out...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	thr := sorted[topK-1]
	var p, t []float64
	for rep := 0; rep < 21; rep++ {
		t0 := time.Now()
		vec.L2SquaredBatch(q, data, sp.dim, out)
		t1 := time.Now()
		vec.L2SquaredBatchThreshold(q, data, sp.dim, out, thr)
		t2 := time.Now()
		p = append(p, float64(t1.Sub(t0).Nanoseconds())/float64(sp.rows))
		t = append(t, float64(t2.Sub(t1).Nanoseconds())/float64(sp.rows))
	}
	return median(p), median(t)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer assembles every per-layer metric: counts from the deltas of
// the program's public registries over the measured window, times from
// the replay staircase run right after it.
func (r *runner) perLayer(before map[string]int64, storeBefore [2]storeCounts, ws windowStats) (map[string]float64, error) {
	m := map[string]float64{}
	r.windowCounts(m, before, storeBefore, ws)
	s, tr, err := r.replay()
	r.stairTimes(m, s)
	if err == nil && r.rc.spansPath != "" {
		err = writeSpans(r.rc.spansPath, r.in.sp.name, tr.spans, m)
	}
	return m, err
}

// windowCounts fills in what the program's registries, the timing
// stores and the load generator counted over the measured window.
func (r *runner) windowCounts(m map[string]float64, before map[string]int64, storeBefore [2]storeCounts, ws windowStats) {
	sys, in, sp := r.sys, r.in, r.in.sp
	table := sys.engine.Table(tableName)
	after := registrySnapshot()
	d := func(key string) float64 { return float64(after[key] - before[key]) }
	sc := r.storeCounts()
	topD, botD := sc[0].sub(storeBefore[0]), sc[1].sub(storeBefore[1])
	queries := float64(ws.queries)
	w := &r.writer

	// requests the server saw beyond the statements the callers sent,
	// counted from before warm-up so nothing is in flight at either end
	d0 := func(key string) float64 { return float64(after[key] - r.beforeLoad[key]) }
	m["client.retries"] = 0
	if sp.serve {
		m["client.retries"] = d0("bh.server.query.total") + d0("bh.server.exec.total") - float64(r.sent.Load())
	}
	m["server.handler_ms"] = ratio(d("bh.server.latency.query.sum_us"), d("bh.server.latency.query.count")) / 1e3
	m["server.admission_wait_ms"] = ratio(d("bh.server.admission.queue_wait.sum_us"), d("bh.server.admission.queue_wait.count")) / 1e3
	m["server.shed"] = d("bh.server.admission.shed.queue_full") + d("bh.server.admission.shed.queue_timeout")
	m["batch.formation_wait_ms"] = ratio(d("bh.batch.formation_wait.sum_us"), d("bh.batch.formation_wait.count")) / 1e3
	m["batch.mean_group_size"] = ratio(d("bh.batch.queries"), d("bh.batch.groups"))
	m["batch.solo_share"] = ratio(d("bh.batch.solo"), d("bh.batch.queries"))
	hits, misses := d("bh.plan.cache.hits"), d("bh.plan.cache.misses")
	m["plan.cache_hit_ratio"] = ratio(hits, hits+misses)
	vq := d("bh.query.vector.total")
	m["plan.share_pre_filter"] = ratio(d("bh.query.plan.pre_filter"), vq)
	m["plan.share_post_filter"] = ratio(d("bh.query.plan.post_filter"), vq)
	m["plan.share_brute_force"] = ratio(d("bh.query.plan.brute_force"), vq)
	m["exec.segment_scans_per_query"] = ratio(d("bh.exec.segment_scans"), vq)
	m["exec.memtable_scans_per_query"] = ratio(d("bh.exec.memtable_scans"), vq)
	m["exec.widen_rounds_per_query"] = ratio(d("bh.query.widen_rounds"), vq)
	m["lsm.segments_end"] = float64(table.SegmentCount())
	m["lsm.flush_runs"] = d("bh.lsm.flush.runs")
	m["lsm.flush_ms_mean"] = ratio(d("bh.lsm.flush.duration.sum_us"), d("bh.lsm.flush.duration.count")) / 1e3
	m["lsm.memtable_rows_p50"] = median(w.memRows)
	m["lsm.memtable_stalls"] = d("bh.lsm.memtable.stalls")
	m["wal.commits"] = d("bh.wal.commit.total")
	m["wal.records_per_commit"] = ratio(d("bh.wal.append.records"), d("bh.wal.commit.total"))
	m["wal.commit_ms_mean"] = ratio(d("bh.wal.fsync.latency.sum_us"), d("bh.wal.fsync.latency.count")) / 1e3
	m["wal.put_bytes_per_user_byte"] = ratio(d0("bh.wal.commit.bytes"),
		float64(w.inserts*writerBatchRows)*float64(in.userBytes)/float64(sp.rows))
	ch, cm := d("bh.cache.column.hits"), d("bh.cache.column.misses")
	m["cache.col_hit_ratio"] = ratio(ch, ch+cm)
	m["storage.retries"] = d("bh.storage.retries")
	m["storage.put_bytes_per_user_byte"] = ratio(float64(sys.loadPutBytes), float64(in.userBytes))
	for _, name := range []string{"storage.remote_gets_per_query", "storage.remote_kb_per_query", "storage.remote_wait_ms_per_query",
		"blobtier.mem_hit_ratio", "blobtier.get_hit_us", "blobtier.evictions_per_query", "blobtier.fills_per_query"} {
		m[name] = 0 // no remote store, no tier
	}
	if sp.cold {
		m["storage.remote_gets_per_query"] = float64(botD.gets) / queries
		m["storage.remote_kb_per_query"] = float64(botD.getBytes) / 1024 / queries
		m["storage.remote_wait_ms_per_query"] = float64(botD.getNS) / 1e6 / queries
		th, tm := d("bh.storage.tier.mem_hits"), d("bh.storage.tier.misses")
		m["blobtier.mem_hit_ratio"] = ratio(th, th+tm)
		m["blobtier.get_hit_us"] = ratio(float64(topD.getNS-botD.getNS), float64(topD.gets)) / 1e3
		m["blobtier.evictions_per_query"] = d("bh.storage.tier.evict_mem") / queries
		m["blobtier.fills_per_query"] = d("bh.storage.tier.fills") / queries
	}
	var idxBytes int64
	for _, meta := range table.Segments() {
		if n, err := sys.mem.Size(table.IndexKeyOf(meta.Name)); err == nil {
			idxBytes += n
		}
	}
	m["index.blob_bytes_per_vector"] = ratio(float64(idxBytes), float64(table.Rows()))

	// the paced writer, ops due inside the window only
	var ack, late []float64
	lo, hi := float64(r.rc.warmup.Nanoseconds()), float64((r.rc.warmup + r.rc.window).Nanoseconds())
	for i, due := range w.dueNS {
		if due >= lo && due < hi {
			ack = append(ack, w.ackMS[i])
			late = append(late, w.lateMS[i])
		}
	}
	sort.Float64s(ack)
	sort.Float64s(late)
	m["ingest.ack_p50_ms"], _ = percentile(ack, 0.50)
	m["ingest.ack_p99_ms"], _ = percentile(ack, 0.99)
	m["bench.loadgen_late_ms"], _ = percentile(late, 0.99)
	m["window.qps"] = ws.qps
	m["window.query_p50_ms"] = ws.p50
	m["window.query_p99_ms"] = ws.p99
	m["bench.ref_probe_us"] = ws.probeUS
	sr := append([]float64(nil), ws.rates...)
	sort.Float64s(sr)
	m["bench.round_spread_qps"] = ratio(sr[len(sr)-1]-sr[0], median(sr))
}

// stairTimes turns the replay's step sums into per-layer times and
// shares of the outermost wall.
func (r *runner) stairTimes(m map[string]float64, s *stairSums) {
	in, sp := r.in, r.in.sp
	n := float64(s.n)
	if n == 0 {
		n = 1
	}
	m["bench.replayed_statements"] = float64(s.n)
	m["client.overhead_ms"] = (s.wall0 - s.elapsed) / n / 1e6
	m["core.query_ms"] = s.tq / n / 1e6
	m["core.overhead_us"] = ((s.tq - s.tqTop) - s.parse - s.planT - (s.run - s.runTop)) / n / 1e3
	m["sql.parse_us"] = s.parse / n / 1e3
	m["sql.insert_parse_us_per_row"] = ratio(s.insertParseNS, s.insertParseRows) / 1e3
	m["plan.plan_us"] = s.planT / n / 1e3
	m["exec.run_ms"] = s.run / n / 1e6
	for c, name := range []string{"sel1", "sel50", "sel99"} {
		if len(sp.classes) > 0 {
			m["exec.run_ms."+name] = median(s.runByClass[c])
		} else {
			m["exec.run_ms."+name] = 0
		}
	}
	m["index.search_us_per_segment"] = ratio(s.search, float64(s.searches)) / 1e3
	m["index.open_ms_per_segment"] = ratio(s.open, float64(s.opens)) / 1e6
	m["vec.l2_ns_per_row"], m["vec.l2_threshold_ns_per_row"] = in.vecProbe()

	// Shares of the outermost wall. Self time = step minus the steps
	// below it; a negative self time is the steps disagreeing, and goes
	// to unattributed instead of being netted off another layer.
	wall := s.tq
	if sp.serve {
		wall = s.wall0
	}
	share := map[string]float64{}
	unattributed := 0.0
	put := func(layer string, ns float64) {
		if ns < 0 {
			unattributed -= ns
			ns = 0
		}
		share[layer] = ns
	}
	if sp.serve {
		put("client", s.wall0-s.elapsed)
		put("server", s.elapsed-s.form-s.tq) // admission wait is the server's own
		put("batch", s.form)
	}
	put("storage", s.tqBot)
	put("blobtier", s.tqTop-s.tqBot)
	cpu := s.tq - s.tqTop
	execCPU := s.run - s.runTop
	put("sql", s.parse)
	put("plan", s.planT)
	put("core", cpu-s.parse-s.planT-execCPU)
	// inside exec: proportions from the serial run, where children add up
	run1CPU := s.run1 - s.run1Top
	openCPU := 0.0
	if sp.cold { // only a cold node opens indexes on the query path
		openCPU = s.open - s.openTop
	}
	scale := ratio(execCPU, run1CPU)
	put("index_open", openCPU*scale)
	put("index_search", s.search*scale)
	put("vec", s.vecNS*scale)
	put("exec", (run1CPU-openCPU-s.search-s.vecNS)*scale)
	for _, layer := range []string{"client", "server", "batch", "core", "sql", "plan", "exec", "index_search", "index_open", "vec", "storage", "blobtier"} {
		m["share."+layer] = ratio(share[layer], wall)
	}
	m["bench.unattributed_share"] = ratio(unattributed, wall)
}

func writeSpans(path, workload string, spans []span, layers map[string]float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"workload": workload, "per_layer": layers, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
