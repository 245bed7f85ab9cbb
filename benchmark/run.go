package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blendhouse/internal/core"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/internal/sql"
	"blendhouse/internal/storage"
	"blendhouse/pkg/client"
)

// runConfig is the shape of one run. The defaults (see main) are the
// contract's: three set-ups, a discarded warm-up, then the measured
// window cut into five rounds.
type runConfig struct {
	seed      int64
	window    time.Duration
	rounds    int
	warmup    time.Duration
	setups    int
	trace     bool
	smoke     bool
	replay    int // statements the traced replay walks down the staircase
	spansPath string
}

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Header    map[string]any     `json:"header"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

// phaseLog is what the callers of one phase (warm-up or window) saw.
type phaseLog struct {
	endNS, latNS []int64 // per query: completion offset from phase start, latency
	probeAt      []int64 // reference probe: offset from phase start, duration (ns)
	probeNS      []int64
	hits, truth  int // recall numerator / denominator over scored responses
	failures
}

// failures counts failed operations and keeps the first few reasons.
type failures struct {
	failed int
	errs   []string
}

func (f *failures) fail(msg string) {
	f.failed++
	if len(f.errs) < 5 {
		f.errs = append(f.errs, msg)
	}
}

// sample is one reader query kept for after-the-fact recall scoring on
// the ingest workload, where what is visible changes under the query.
type sample struct {
	qv        int
	ackedRows int64 // rows acknowledged before the query was sent
	sentOps   int64 // writer ops sent by the time the answer arrived
	ids       []int64
}

// runner drives one built system.
type runner struct {
	in  *inputs
	sys *system
	rc  runConfig

	cursor []int // per caller, its position in the statement cycle

	// ingest visibility, written by the writer, read by the reader
	sentRows, ackedRows atomic.Int64
	sentOps, ackedOps   atomic.Int64
	delOp               map[int64]int64  // id → index of the writer op that deletes it
	sent                atomic.Int64     // statements handed to pkg/client, all callers
	beforeLoad          map[string]int64 // registry snapshot before warm-up (traced runs)
	samples             []sample
	writer              writerLog

	probe *refProbe
}

type writerLog struct {
	dueNS, ackMS, lateMS []float64 // per op: due offset from writer start, ack latency from due, generator lateness
	memRows              []float64 // rows buffered in memtables, sampled at each op
	inserts, deletes     int       // acknowledged
	probes               int
	failures
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupStats is what the repeated set-ups measured.
type setupStats struct {
	seconds, probeUS, memMB []float64 // per set-up: wall, median reference probe, heap held
}

// atRefSpeed is the set-up time at the reference memory speed: each
// set-up's seconds scaled by refProbeQuiet over the probe time seen
// during it, then the median. NOISE.md shows why the stopwatch value
// cannot carry a bound on these builders and this one can.
func (st setupStats) atRefSpeed() float64 {
	scaled := make([]float64, len(st.seconds))
	for i, sec := range st.seconds {
		scaled[i] = sec * float64(refProbeQuiet.Microseconds()) / st.probeUS[i]
	}
	return median(scaled)
}

// setUp builds the system rc.setups times from an empty store and
// keeps the last instance. Memory is HeapAlloc after set-up and two
// GCs, less what the benchmark's own inputs held before the first
// set-up. (The process registry keeps the previous engine's store
// reachable until the next engine registers over it, so a per-set-up
// baseline would cancel the very bytes being measured.)
func setUp(in *inputs, rc runConfig, probe *refProbe) (*system, setupStats, error) {
	var st setupStats
	var sys *system
	runtime.GC()
	runtime.GC()
	baseline := heapAlloc()
	for i := 0; i < rc.setups; i++ {
		if sys != nil {
			sys.close()
		}
		var pr []float64
		t0 := time.Now()
		s, err := build(in, func() { pr = append(pr, float64(probe.run().Nanoseconds())/1e3) })
		if err != nil {
			return nil, st, fmt.Errorf("set-up: %w", err)
		}
		st.seconds = append(st.seconds, time.Since(t0).Seconds())
		st.probeUS = append(st.probeUS, median(pr))
		sys = s
		runtime.GC()
		runtime.GC()
		st.memMB = append(st.memMB, (float64(heapAlloc())-float64(baseline))/1e6)
	}
	return sys, st, nil
}

// windowStats is the measured window as its callers saw it.
type windowStats struct {
	queries      int
	rates        []float64 // per round, 1/s
	qps          float64   // median of rates
	p50, p99     float64   // ms, pooled
	p99used      float64   // the quantile p99 really is (ten-samples-beyond rule)
	probeUS      float64   // median reference probe over the window
	roundProbeUS []float64
	recall       float64
	recallRows   int
}

func summarize(win *phaseLog, rc runConfig) windowStats {
	ws := windowStats{queries: len(win.latNS), recallRows: win.truth}
	ws.rates = roundRates(win.endNS, rc.window.Nanoseconds(), rc.rounds)
	ws.qps = median(ws.rates)
	lat := make([]float64, len(win.latNS))
	for i, ns := range win.latNS {
		lat[i] = float64(ns) / 1e6
	}
	sort.Float64s(lat)
	ws.p50, _ = percentile(lat, 0.50)
	ws.p99, ws.p99used = percentile(lat, 0.99)
	per := rc.window.Nanoseconds() / int64(rc.rounds)
	byRound := make([][]float64, rc.rounds)
	all := make([]float64, len(win.probeNS))
	for i, at := range win.probeAt {
		all[i] = float64(win.probeNS[i]) / 1e3
		if k := int(at / per); k < rc.rounds {
			byRound[k] = append(byRound[k], all[i])
		}
	}
	ws.probeUS = median(all)
	for _, v := range byRound {
		ws.roundProbeUS = append(ws.roundProbeUS, median(v))
	}
	if win.truth > 0 {
		ws.recall = float64(win.hits) / float64(win.truth)
	}
	return ws
}

// runWorkload performs one complete run: inputs from the seed, timed
// set-up(s), warm-up, measured window, correctness checks, and — with
// rc.trace — the per-layer pass.
func runWorkload(sp *spec, rc runConfig) (*result, error) {
	if err := configureLogging(sp); err != nil {
		return nil, err
	}
	res := &result{Workload: sp.name, Seed: rc.seed, Header: header(rc)}

	writerOps := 0
	if sp.ingest {
		writerOps = int((rc.warmup+rc.window)/(writerPeriodMS*time.Millisecond)) + 2*deleteEvery
	}
	in := makeInputs(sp, rc.seed, writerOps)
	probe := newRefProbe()

	sys, setup, err := setUp(in, rc, probe)
	if err != nil {
		return nil, err
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	stored, err := storeBytes(sys.mem)
	if err != nil {
		return nil, err
	}
	res.Header["setup_stopwatch_s"] = setup.seconds
	res.Header["setup_probe_us"] = setup.probeUS
	res.Header["store_bytes"] = stored
	res.Header["user_bytes"] = in.userBytes
	if sp.cold {
		res.Header["immutable_blob_bytes"] = sys.blobBytes
		res.Header["tier_mem_bytes"] = sys.tierBytes
	}

	r := &runner{in: in, sys: sys, rc: rc, cursor: make([]int, sp.callers), probe: probe}
	for c := range r.cursor {
		r.cursor[c] = c
	}
	if sp.ingest {
		r.sentRows.Store(int64(sp.rows))
		r.ackedRows.Store(int64(sp.rows))
		r.delOp = map[int64]int64{}
		for j, op := range in.ops {
			for _, id := range op.del {
				r.delOp[id] = int64(j)
			}
		}
	} else {
		exact, err := r.exactClasses()
		if err != nil {
			return nil, err
		}
		in.groundTruth(exact)
	}

	// Warm-up (discarded), then the measured window. The paced writer
	// runs through both so the table grows the same way every run.
	if rc.trace {
		r.beforeLoad = registrySnapshot()
	}
	stopWriter := func() {}
	if sp.ingest {
		stopWriter = r.startWriter()
	}
	r.phase(rc.warmup)
	var before map[string]int64
	var storeBefore [2]storeCounts
	if rc.trace {
		before = registrySnapshot()
		storeBefore = r.storeCounts()
	}
	runtime.GC()
	runtime.GC()
	win := r.phase(rc.window)
	stopWriter()

	if len(win.latNS) == 0 {
		return nil, errors.New("no query completed in the measured window")
	}
	if sp.ingest {
		win.hits, win.truth = r.scoreSamples()
	}
	ws := summarize(win, rc)
	res.Attempted = ws.queries + len(r.writer.ackMS) + r.writer.probes
	res.Failed = win.failed + r.writer.failed
	res.Notes = append(res.Notes, win.errs...)
	res.Notes = append(res.Notes, r.writer.errs...)
	res.Header["measured_queries"] = ws.queries
	res.Header["round_qps"] = ws.rates
	res.Header["round_probe_us"] = ws.roundProbeUS
	res.Header["qps"] = ws.qps
	res.Header["query_p50_ms"] = ws.p50
	res.Header["query_p99_ms"] = ws.p99
	res.Header["p99_quantile_used"] = ws.p99used
	res.Header["recall_scored_rows"] = ws.recallRows
	if !rc.smoke && ws.queries < 2000 {
		res.Failed++
		res.Notes = append(res.Notes, fmt.Sprintf("only %d measured queries, want >= 2000", ws.queries))
	}

	if !rc.trace {
		allocs, allocKB, err := r.allocsPerQuery()
		if err != nil {
			return nil, err
		}
		res.EndToEnd = map[string]float64{
			"setup_s":            setup.atRefSpeed(),
			"mem_after_setup_mb": median(setup.memMB),
			"recall_at_10":       ws.recall,
			"allocs_per_query":   allocs,
			"alloc_kb_per_query": allocKB,
			"space_amp":          float64(stored) / float64(in.userBytes),
		}
	} else if res.PerLayer, err = r.perLayer(before, storeBefore, ws); err != nil {
		res.Failed++
		res.Notes = append(res.Notes, "traced pass: "+err.Error())
	}

	// Durability and visibility after a restart: close, reopen on the
	// same bytes, count what is visible.
	want := sp.rows + r.writer.inserts*writerBatchRows - r.writer.deletes*deleteKeys
	sys.close()
	mem := sys.mem
	sys = nil
	got, overhead, err := reopenCheck(in, mem, rc)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if got != want {
		res.Failed++
		res.Notes = append(res.Notes, fmt.Sprintf("after reopen %d rows visible, want %d (acked inserts - acked deletes)", got, want))
	}
	if rc.trace {
		res.PerLayer["obs.trace_overhead_pct"] = overhead
		// (a smoke run replays too few statements for this to mean anything)
		if u := res.PerLayer["bench.unattributed_share"]; u > 0.25 && !rc.smoke {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("unattributed share %.3f > 0.25", u))
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func header(rc runConfig) map[string]any {
	h := map[string]any{
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"window_s":   rc.window.Seconds(),
		"rounds":     rc.rounds,
		"warmup_s":   rc.warmup.Seconds(),
		"setups":     rc.setups,
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		var l1 float64
		if _, err := fmt.Sscan(string(b), &l1); err == nil {
			h["loadavg_1m"] = l1
			h["noisy_host"] = l1 > 1.0
		}
	}
	return h
}

// exactClasses asks the planner (from outside, as a caller could)
// which statement classes run the brute-force plan: those answers are
// exact, so every one of them is held to the oracle's ids.
func (r *runner) exactClasses() (map[int]bool, error) {
	exact := map[int]bool{}
	seen := map[int]bool{}
	for i := range r.in.queries {
		q := &r.in.queries[i]
		if seen[q.class] {
			continue
		}
		seen[q.class] = true
		ph, err := r.planOf(q.sql)
		if err != nil {
			return nil, err
		}
		exact[q.class] = ph.Strategy == plan.BruteForce
	}
	return exact, nil
}

func (r *runner) planOf(src string) (*plan.Physical, error) {
	st, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %.40s", src)
	}
	return r.sys.engine.Planner().Plan(sel, r.sys.engine.Table(tableName))
}

// phase runs every closed-loop caller for d and returns what they saw,
// pooled. Each caller sends its next statement only when the previous
// one has answered.
func (r *runner) phase(d time.Duration) *phaseLog {
	sp := r.in.sp
	logs := make([]*phaseLog, sp.callers)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < sp.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c] = r.callerLoop(c, start, d)
		}(c)
	}
	wg.Wait()
	all := logs[0]
	for _, l := range logs[1:] {
		all.endNS = append(all.endNS, l.endNS...)
		all.latNS = append(all.latNS, l.latNS...)
		all.failed += l.failed
		all.hits += l.hits
		all.truth += l.truth
		all.errs = append(all.errs, l.errs...)
	}
	return all
}

func (r *runner) callerLoop(c int, start time.Time, d time.Duration) *phaseLog {
	sp := r.in.sp
	// sized up front so recording a query never allocates inside the window
	est := int(d.Seconds()*4000) + 64
	log := &phaseLog{endNS: make([]int64, 0, est), latNS: make([]int64, 0, est)}
	ctx := context.Background()
	var gone func(int64) bool
	var ackedOps int64
	if sp.ingest {
		gone = func(id int64) bool {
			op, ok := r.delOp[id]
			return ok && op < ackedOps
		}
	}
	var lastProbe time.Time
	for n := 0; ; n++ {
		t0 := time.Now()
		if t0.Sub(start) >= d {
			return log
		}
		if c == 0 && t0.Sub(lastProbe) >= 25*time.Millisecond {
			log.probeAt = append(log.probeAt, t0.Sub(start).Nanoseconds())
			log.probeNS = append(log.probeNS, r.probe.run().Nanoseconds())
			lastProbe = time.Now()
			t0 = lastProbe
		}
		q := &r.in.queries[r.cursor[c]%len(r.in.queries)]
		r.cursor[c] += sp.callers
		maxID := int64(sp.rows)
		var ackedRows int64
		if sp.ingest {
			ackedOps, ackedRows = r.ackedOps.Load(), r.ackedRows.Load()
		}
		r.sent.Add(1)
		resp, err := r.sys.query(ctx, c, q.sql)
		t1 := time.Now()
		log.endNS = append(log.endNS, t1.Sub(start).Nanoseconds())
		log.latNS = append(log.latNS, t1.Sub(t0).Nanoseconds())
		if err != nil {
			log.fail("query: " + err.Error())
			continue
		}
		if sp.ingest {
			maxID = r.sentRows.Load()
		}
		qvec := r.in.ds.Queries.Row(q.qv)
		bad, hits := r.in.checkRows(q, qvec, resp.rows, maxID, gone)
		switch {
		case bad > 0:
			log.fail(fmt.Sprintf("%d rows of a response violate the oracle (predicate, delete, distance or order): %.80s", bad, q.sql))
		case len(resp.rows) < topK && !q.pred:
			log.fail(fmt.Sprintf("%d rows returned, want %d", len(resp.rows), topK))
		}
		if sp.ingest {
			if n%8 == 0 && len(r.samples) < cap(r.samples) {
				s := sample{qv: q.qv, ackedRows: ackedRows, sentOps: r.sentOps.Load()}
				for _, row := range resp.rows {
					id, _ := asInt(row[0])
					s.ids = append(s.ids, id)
				}
				r.samples = append(r.samples, s)
			}
			continue
		}
		if q.d10 >= 0 {
			log.hits += hits
			log.truth += q.want
			if q.exact && hits != q.want {
				log.fail(fmt.Sprintf("exact plan returned %d of the oracle's %d rows: %.80s", hits, q.want, q.sql))
			}
		}
	}
}

// allocsPerQuery counts heap allocations per query over a serial pass
// of the statement cycle with nothing else running — the writer
// stopped and its rows flushed. Counted over the window instead, the
// number on ingest_query_serve is the paced writer's (constant)
// allocations divided by however many queries the reader managed, so
// it would only restate qps with its noise; counted here it repeats to
// a fraction of a percent and a tight bound means something.
func (r *runner) allocsPerQuery() (count, kb float64, err error) {
	n := 500
	if r.rc.smoke {
		n = 50
	}
	if r.in.sp.ingest {
		if err := r.sys.engine.Table(tableName).FlushWAL(); err != nil {
			return 0, 0, err
		}
	}
	ctx := context.Background()
	run := func(count int) error {
		for i := 0; i < count; i++ {
			if _, err := r.sys.query(ctx, 0, r.in.queries[i%len(r.in.queries)].sql); err != nil {
				return err
			}
		}
		return nil
	}
	if err := run(n / 10); err != nil { // index handles dropped by the last INSERT reload here
		return 0, 0, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := run(n); err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n), nil
}

// scoreSamples computes recall for the kept reader queries of the
// ingest workload against the rows that were certainly visible: acked
// before the query left and not touched by any delete sent before the
// answer came back. A returned row counts when it is at least as near
// as the k-th of those.
func (r *runner) scoreSamples() (hits, truth int) {
	in := r.in
	for _, s := range r.samples {
		keep := func(id int) bool {
			op, ok := r.delOp[int64(id)]
			return !ok || op >= s.sentOps
		}
		qvec := in.ds.Queries.Row(s.qv)
		d10, want := in.kthNearest(qvec, int(s.ackedRows), topK, keep)
		truth += want
		for _, id := range s.ids {
			if l2sq(qvec, in.ds.Vectors.Row(int(id))) <= d10*(1+1e-6) {
				hits++
			}
		}
	}
	return hits, truth
}

// pacer is the open-loop schedule: op j is due at start + j·period no
// matter how the system is doing, latency is counted from that due
// time, and how late the generator itself ran is reported.
type pacer struct {
	start  time.Time
	period time.Duration
}

func (p pacer) due(j int) time.Time { return p.start.Add(time.Duration(j) * p.period) }

// wait blocks until op j is due (or stop closes: ok = false) and
// reports how late the generator itself is: the time since the op
// could first have been sent — its due time, or the moment the
// previous op was acknowledged (free) if the system held the
// connection past it. The system's own slowness is not the
// generator's lateness; it is charged to the op's latency, which
// counts from the due time.
func (p pacer) wait(j int, free time.Time, stop <-chan struct{}) (due time.Time, late time.Duration, ok bool) {
	due = p.due(j)
	if d := time.Until(due); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-stop:
			return due, 0, false
		}
	}
	select {
	case <-stop:
		return due, 0, false
	default:
	}
	if free.After(due) {
		return due, time.Since(free), true
	}
	return due, time.Since(due), true
}

// startWriter runs the paced writer on its own connection and returns
// the function that stops it and waits for its last op to be
// acknowledged.
func (r *runner) startWriter() (stop func()) {
	r.samples = make([]sample, 0, 4096)
	stopCh := make(chan struct{})
	done := make(chan struct{})
	conn := len(r.sys.clients) - 1
	p := pacer{start: time.Now(), period: writerPeriodMS * time.Millisecond}
	w := &r.writer
	go func() {
		defer close(done)
		ctx := context.Background()
		cl := r.sys.clients[conn]
		free := p.start
		for j := range r.in.ops {
			op := &r.in.ops[j]
			due, late, ok := p.wait(j, free, stopCh)
			if !ok {
				return
			}
			if op.del == nil {
				r.sentRows.Store(op.firstID + writerBatchRows)
			}
			r.sentOps.Store(int64(j + 1))
			r.sent.Add(1)
			_, err := cl.Exec(ctx, op.sql)
			ack := time.Now()
			free = ack
			w.dueNS = append(w.dueNS, float64(due.Sub(p.start).Nanoseconds()))
			w.ackMS = append(w.ackMS, float64(ack.Sub(due).Nanoseconds())/1e6)
			w.lateMS = append(w.lateMS, float64(late.Nanoseconds())/1e6)
			w.memRows = append(w.memRows, float64(r.sys.engine.Table(tableName).MemRows()))
			if err != nil {
				w.fail("writer: " + err.Error())
				continue // unacknowledged: the visibility counters stay put
			}
			if op.del == nil {
				w.inserts++
				r.ackedRows.Store(op.firstID + writerBatchRows)
			} else {
				w.deletes++
			}
			r.ackedOps.Store(int64(j + 1))
			if op.probe != "" {
				w.probes++
				r.sent.Add(1)
				if msg := probeFresh(ctx, cl, op); msg != "" {
					w.fail(msg)
				}
				free = time.Now()
			}
		}
		w.fail("writer ran out of prepared ops before the window ended")
	}()
	return func() {
		close(stopCh)
		<-done
	}
}

// probeFresh checks acked ⇒ visible: a top-1 search on the vector of
// the row just acknowledged must return that row at distance 0.
func probeFresh(ctx context.Context, cl *client.Client, op *writerOp) (failure string) {
	last := op.firstID + writerBatchRows - 1
	res, err := cl.Query(ctx, op.probe)
	if err != nil {
		return "freshness probe: " + err.Error()
	}
	if len(res.Rows) != 1 {
		return "freshness probe returned no row"
	}
	id, _ := asInt(res.Rows[0][0])
	d, _ := asFloat(res.Rows[0][1])
	if id != last || d > 1e-6 {
		return fmt.Sprintf("freshness probe: acked row %d not top-1 at distance 0 (got id %d at %g)", last, id, d)
	}
	return ""
}

// reopenCheck reopens the table on the durable bytes alone and counts
// its visible rows. It does so twice over — one engine tracing every
// statement (as shipped), one tracing none — and, on traced runs,
// replays the statement cycle alternately through both: the difference
// is what in-engine tracing costs (obs.trace_overhead_pct).
func reopenCheck(in *inputs, mem *storage.MemStore, rc runConfig) (visible int, tracePct float64, err error) {
	sp := *in.sp
	sp.serve = false // in-process engines, no batching scheduler
	ctx := context.Background()
	var engines [2]*core.Engine
	for i, sampleN := range []int{1, 0} {
		e, err := core.New(engineConfig(mem, &sp, sampleN))
		if err != nil {
			return 0, 0, err
		}
		defer e.Close()
		engines[i] = e
	}
	res, err := engines[0].Query(ctx, fmt.Sprintf("SELECT id FROM %s WHERE id >= 0", tableName), core.QueryOptions{})
	if err != nil {
		return 0, 0, err
	}
	visible = len(res.Rows)
	if !rc.trace {
		return visible, 0, nil
	}
	var on, off []float64
	for i := 0; i < rc.replay; i++ {
		q := in.queries[i%len(in.queries)].sql
		for k := 0; k < 2; k++ {
			which := (i + k) % 2 // alternate which engine goes first
			t0 := time.Now()
			if _, err := engines[which].Query(ctx, q, core.QueryOptions{}); err != nil {
				return 0, 0, err
			}
			d := float64(time.Since(t0).Nanoseconds())
			if i < rc.replay/10 {
				continue // both engines' caches fill first
			}
			if which == 0 {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	if m := median(off); m > 0 {
		tracePct = (median(on) - m) / m * 100
	}
	return visible, tracePct, nil
}

func registrySnapshot() map[string]int64 {
	out := map[string]int64{}
	for _, kv := range obs.Default().Snapshot() {
		out[kv.Key] = kv.Value
	}
	return out
}
