package main

import (
	"context"
	"errors"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"blendhouse/internal/storage"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	// 2000 samples: p99 is sample 1980, twenty lie beyond — allowed.
	if v, used := percentile(seq(2000), 0.99); v != 1980 || used != 0.99 {
		t.Errorf("p99 of 2000 = %v (q %v), want 1980 (q 0.99)", v, used)
	}
	// 100 samples: p99 would leave one sample beyond; the picker backs
	// off to the highest rank with ten beyond it and says so.
	if v, used := percentile(seq(100), 0.99); v != 90 || used != 0.90 {
		t.Errorf("p99 of 100 = %v (q %v), want 90 (q 0.90)", v, used)
	}
	// fewer than ten samples in all: the minimum, never an index panic
	if v, _ := percentile(seq(5), 0.99); v != 1 {
		t.Errorf("p99 of 5 = %v, want 1", v)
	}
	if v, used := percentile(nil, 0.5); v != 0 || used != 0 {
		t.Errorf("percentile of nothing = %v, %v", v, used)
	}
	if v, _ := percentile(seq(2000), 0.50); v != 1000 {
		t.Errorf("p50 of 2000 = %v, want 1000", v)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if s := spread(seq(10)); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestRoundMedianIgnoresOneSlowRound(t *testing.T) {
	// five 1 s rounds at 100/s, except round 2 which stalls at 10/s;
	// one completion lands past the deadline and must not count.
	var ends []int64
	for r := 0; r < 5; r++ {
		n := 100
		if r == 2 {
			n = 10
		}
		for i := 0; i < n; i++ {
			ends = append(ends, int64(r)*1e9+int64(i)*1e9/int64(n))
		}
	}
	ends = append(ends, 5e9+1)
	rates := roundRates(ends, 5e9, 5)
	want := []float64{100, 100, 10, 100, 100}
	for i := range want {
		if rates[i] != want[i] {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
	if m := median(rates); m != 100 {
		t.Errorf("median of round rates = %v, want 100 (the mean would be 82)", m)
	}
}

func TestPacerTimesFromDueAndReportsLateness(t *testing.T) {
	p := pacer{start: time.Now(), period: 20 * time.Millisecond}
	stop := make(chan struct{})

	// op 0 is due at once
	due, late, ok := p.wait(0, p.start, stop)
	if !ok || !due.Equal(p.start) || late > 10*time.Millisecond {
		t.Fatalf("op 0: due %v late %v ok %v", due.Sub(p.start), late, ok)
	}
	// the system holds the connection for 50 ms: op 1 (due at 20 ms)
	// leaves late, but that is the system's doing. Its due time does not
	// move — latency counts from it — and the generator's own lateness
	// counts only from the moment the connection came free.
	time.Sleep(50 * time.Millisecond)
	free := time.Now()
	due, late, ok = p.wait(1, free, stop)
	if !ok || !due.Equal(p.start.Add(20*time.Millisecond)) {
		t.Fatalf("op 1 due %v, want 20ms", due.Sub(p.start))
	}
	if since := time.Since(due); since < 30*time.Millisecond {
		t.Errorf("op 1 sent %v after its due time, want >= 30ms (schedule must not shift)", since)
	}
	if late > 10*time.Millisecond {
		t.Errorf("generator lateness %v: the system's 50 ms was charged to the generator", late)
	}
	// a generator that itself dawdles after the connection is free is late
	time.Sleep(15 * time.Millisecond)
	_, late, _ = p.wait(1, free, stop)
	if late < 15*time.Millisecond {
		t.Errorf("generator lateness %v, want >= 15ms", late)
	}
	// an op not yet due waits for its due time
	t0 := time.Now()
	due, late, ok = p.wait(5, free, stop)
	if !ok || time.Now().Before(due) || late > 10*time.Millisecond {
		t.Errorf("op 5: returned %v before due, late %v", due.Sub(time.Now()), late)
	}
	if time.Since(t0) < 10*time.Millisecond {
		t.Errorf("op 5 did not wait")
	}
	// stop wins over a pending op
	close(stop)
	if _, _, ok := p.wait(1000, free, stop); ok {
		t.Error("wait returned ok after stop")
	}
}

// probeStore records which read method was reached and fails on demand.
type probeStore struct {
	storage.BlobStore
	called string
	err    error
}

func (p *probeStore) Get(key string) ([]byte, error) {
	p.called = "Get"
	return []byte("plain"), p.err
}
func (p *probeStore) GetCtx(ctx context.Context, key string) ([]byte, error) {
	p.called = "GetCtx"
	return []byte("ctx"), p.err
}
func (p *probeStore) GetRange(key string, off, n int64) ([]byte, error) {
	p.called = "GetRange"
	return []byte("pr"), p.err
}
func (p *probeStore) GetRangeCtx(ctx context.Context, key string, off, n int64) ([]byte, error) {
	p.called = "GetRangeCtx"
	return []byte("cr"), p.err
}

func TestTimingStorePassesThrough(t *testing.T) {
	inner := &probeStore{BlobStore: storage.NewMemStore()}
	ts := newTimingStore("t", inner)
	var _ storage.CtxReader = ts
	ctx := context.Background()

	// each variant reaches the same variant below, bytes unchanged
	if b, err := ts.Get("k"); inner.called != "Get" || string(b) != "plain" || err != nil {
		t.Errorf("Get → %s %q %v", inner.called, b, err)
	}
	if b, err := ts.GetCtx(ctx, "k"); inner.called != "GetCtx" || string(b) != "ctx" || err != nil {
		t.Errorf("GetCtx → %s %q %v", inner.called, b, err)
	}
	if b, _ := ts.GetRange("k", 0, 2); inner.called != "GetRange" || string(b) != "pr" {
		t.Errorf("GetRange → %s %q", inner.called, b)
	}
	if b, _ := ts.GetRangeCtx(ctx, "k", 0, 2); inner.called != "GetRangeCtx" || string(b) != "cr" {
		t.Errorf("GetRangeCtx → %s %q", inner.called, b)
	}
	if c := ts.counts(); c.gets != 4 || c.getBytes != int64(len("plain")+len("ctx")+2+2) {
		t.Errorf("counts = %+v", c)
	}

	// errors come back as the very same value
	inner.err = &storage.ErrNotFound{Key: "k"}
	if _, err := ts.GetCtx(ctx, "k"); err != inner.err || !storage.IsNotFound(err) {
		t.Errorf("GetCtx error = %v, want the inner error itself", err)
	}
	if _, err := ts.GetRange("k", 0, 1); err != inner.err {
		t.Errorf("GetRange error = %v", err)
	}
	// a dead context is refused before the store is asked
	dead, cancel := context.WithCancel(ctx)
	cancel()
	inner.called = ""
	if _, err := ts.GetCtx(dead, "k"); !errors.Is(err, context.Canceled) || inner.called != "" {
		t.Errorf("dead ctx: err %v, reached %q", err, inner.called)
	}

	// writes, sizes, lists and deletes go to the inner store
	inner.err = nil
	if err := ts.Put("a/b", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if n, err := ts.Size("a/b"); n != 5 || err != nil {
		t.Errorf("Size = %d %v", n, err)
	}
	if keys, _ := ts.List("a/"); len(keys) != 1 {
		t.Errorf("List = %v", keys)
	}
	if err := ts.Delete("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Size("a/b"); !storage.IsNotFound(err) {
		t.Errorf("Size after Delete: %v", err)
	}
	if c := ts.counts(); c.puts != 1 || c.putBytes != 5 {
		t.Errorf("put counts = %+v", c)
	}

	// recorded intervals: overlapping reads are merged, not summed
	t0 := time.Now()
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	got := covered([]interval{{ms(0), ms(10)}, {ms(5), ms(12)}, {ms(20), ms(21)}})
	if got != 13*time.Millisecond {
		t.Errorf("covered = %v, want 13ms", got)
	}
	ts.record(true)
	_, _ = ts.Get("k")
	if iv := ts.record(false); len(iv) != 1 {
		t.Errorf("recorded %d reads, want 1", len(iv))
	}
	_, _ = ts.Get("k")
	if iv := ts.record(false); len(iv) != 0 {
		t.Errorf("recorded %d reads while not recording", len(iv))
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "allocs_per_query", Better: "lower", Bound: 0.08}
	higher := metricDef{Name: "recall_at_10", Better: "higher", Bound: 0.08}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01} }
	for _, c := range []struct {
		d       metricDef
		p, c    []float64
		verdict string
	}{
		{lower, steady(1), steady(1.05), "ok"},
		{lower, steady(1), steady(1.10), "regressed"},
		{lower, steady(1), steady(0.5), "ok"}, // better is never a regression
		{higher, steady(100), steady(95), "ok"},
		{higher, steady(100), steady(90), "regressed"},
		{higher, steady(100), steady(130), "ok"},
		{lower, []float64{0.8, 1, 1.2}, steady(1), "unresolved"}, // parent too noisy to say "unchanged"
		{lower, []float64{0.8, 1, 1.2}, steady(1.5), "regressed"},
		{metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}, []float64{0.5, 1, 1.5}, steady(1), "ok"},
	} {
		if v, worse := judge(c.d, c.p, c.c); v != c.verdict {
			t.Errorf("%s parent %v change %v: %s (worse %.3f), want %s", c.d.Name, c.p, c.c, v, worse, c.verdict)
		}
	}
}

// BENCHMARK.json is written by hand; hold it to the driver's limits
// and to what the program actually measures.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, specs[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, bf.EndToEnd...), bf.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("bad or repeated metric %q unit %q", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup || len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 || len(bf.PerLayer) < 1 {
		t.Errorf("setup_s present: %v; %d end-to-end, %d per-layer", hasSetup, len(bf.EndToEnd), len(bf.PerLayer))
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || bf.RunSeconds%rounds != 0 || bf.RunSeconds/rounds < 4 {
		t.Errorf("run_seconds %d: want five whole rounds of at least 4 s", bf.RunSeconds)
	}
	if runs := 4 + 22*len(bf.Workloads); runs*37 > 3420 {
		t.Logf("%d runs leave %d s each", runs, 3420/runs)
	}
}

// TestSmoke runs every workload for real, briefly, traced — the window,
// the oracle, the reopen check and the staircase all execute — and one
// untraced, so no workload can rot unnoticed. Skipped under -short.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads (~25 s)")
	}
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(res *result, defs []metricDef, vals map[string]float64) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d notes=%v", res.Workload, res.Correct, res.Failed, res.Attempted, res.Notes)
		}
		if len(vals) != len(defs) {
			t.Errorf("%s: %d metrics measured, %d declared", res.Workload, len(vals), len(defs))
		}
		for _, d := range defs {
			v, ok := vals[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v (present %v)", res.Workload, d.Name, v, ok)
			}
		}
	}
	for i, sp := range specs {
		rc := newRunConfig(int64(7+i), 2, true, true)
		rc.spansPath = t.TempDir() + "/spans.json"
		res, err := runWorkload(sp, rc)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		check(res, bf.PerLayer, res.PerLayer)
		if st, err := os.Stat(rc.spansPath); err != nil || st.Size() == 0 {
			t.Errorf("%s: no spans written: %v", sp.name, err)
		}
	}
	res, err := runWorkload(specs[0], newRunConfig(3, 2, false, true))
	if err != nil {
		t.Fatal(err)
	}
	check(res, bf.EndToEnd, res.EndToEnd)
	for _, d := range bf.EndToEnd {
		if res.EndToEnd[d.Name] <= 0 {
			t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, res.EndToEnd[d.Name])
		}
	}
}

// The oracle must accept the exact answer and reject each kind of
// wrong one; otherwise "correct: true" means nothing.
func TestOracleCatchesViolations(t *testing.T) {
	sp := &spec{name: "tiny", dim: 8, rows: 400, segments: 1, callers: 1, intCol: "attr", classes: []int64{500000}}
	in := makeInputs(sp, 5, 0)
	in.groundTruth(map[int]bool{0: true})
	q := &in.queries[0]
	qvec := in.ds.Queries.Row(q.qv)
	if q.d10 < 0 || q.want != topK || !q.exact {
		t.Fatalf("no ground truth for an exact class: d10 %v want %d exact %v", q.d10, q.want, q.exact)
	}
	// the exact answer, by a second brute force
	type cand struct {
		id int
		d  float64
	}
	var cands []cand
	for id := 0; id < sp.rows; id++ {
		if in.ints[id] >= q.lo && in.ints[id] <= q.hi {
			cands = append(cands, cand{id, l2sq(qvec, in.ds.Vectors.Row(id))})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	answer := func() [][]any {
		var rows [][]any
		for _, c := range cands[:topK] {
			rows = append(rows, []any{int64(c.id), in.ints[c.id], math.Sqrt(c.d)})
		}
		return rows
	}
	if bad, hits := in.checkRows(q, qvec, answer(), int64(sp.rows), nil); bad != 0 || hits != topK {
		t.Fatalf("exact answer: bad %d hits %d", bad, hits)
	}
	outside := 0 // a row the predicate excludes
	for in.ints[outside] <= q.hi {
		outside++
	}
	for name, spoil := range map[string]func(rows [][]any) [][]any{
		"predicate violated": func(r [][]any) [][]any {
			r[3] = []any{int64(outside), in.ints[outside], math.Sqrt(l2sq(qvec, in.ds.Vectors.Row(outside)))}
			return r
		},
		"wrong distance":     func(r [][]any) [][]any { r[2][2] = r[2][2].(float64) * 1.01; return r },
		"out of order":       func(r [][]any) [][]any { r[4], r[5] = r[5], r[4]; return r },
		"row twice":          func(r [][]any) [][]any { r[7] = r[6]; return r },
		"projected value":    func(r [][]any) [][]any { r[1][1] = r[1][1].(int64) + 1; return r },
		"id out of range":    func(r [][]any) [][]any { r[0][0] = int64(sp.rows); return r },
		"more than k rows":   func(r [][]any) [][]any { return append(r, r[0]) },
		"deleted row":        func(r [][]any) [][]any { return r }, // see gone below
		"unparseable values": func(r [][]any) [][]any { r[9] = []any{"x", "y", "z"}; return r },
	} {
		var gone func(int64) bool
		if name == "deleted row" {
			dead := int64(cands[0].id)
			gone = func(id int64) bool { return id == dead }
		}
		if bad, _ := in.checkRows(q, qvec, spoil(answer()), int64(sp.rows), gone); bad == 0 {
			t.Errorf("%s: not caught", name)
		}
	}
	// a worse-but-valid answer is not a violation, it is lost recall
	worse := answer()
	c := cands[topK+5]
	worse[9] = []any{int64(c.id), in.ints[c.id], math.Sqrt(c.d)}
	if bad, hits := in.checkRows(q, qvec, worse, int64(sp.rows), nil); bad != 0 || hits != topK-1 {
		t.Errorf("approximate answer: bad %d hits %d, want 0 and %d", bad, hits, topK-1)
	}
}
