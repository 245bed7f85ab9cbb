package obs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("query")
	root := tr.Span()
	if root == nil {
		t.Fatal("live trace must have a root span")
	}
	prune := root.Child("prune")
	prune.SetInt("kept", 3)
	prune.End()
	scan := root.Child("scan")
	scan.Set("strategy", "pre-filter")
	seg := scan.Child("segment s1")
	seg.SetInt("candidates", 10)
	seg.End()
	scan.End()
	tr.ColTally().Hit()
	tr.ColTally().Miss()
	tr.IdxTally().Hit()
	time.Sleep(time.Millisecond)
	tr.Finish()

	if root.Duration() <= 0 {
		t.Fatal("finished root span must have positive duration")
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "prune" || kids[1].Name() != "scan" {
		t.Fatalf("unexpected children: %v", kids)
	}
	if got := kids[0].Attr("kept"); got != "3" {
		t.Fatalf("prune kept attr = %q, want 3", got)
	}
	lines := tr.Lines()
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"query", "  prune", "  scan", "    segment s1", "strategy=pre-filter",
		"cache: column hits=1 misses=1 bypasses=0 | index hits=1 misses=0"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("trace lines missing %q:\n%s", want, joined)
		}
	}
}

func TestSpanConcurrentChildren(t *testing.T) {
	tr := NewTrace("q")
	sp := tr.Span().Child("scan")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := sp.Child("seg")
				c.SetInt("n", int64(j))
				c.End()
			}
		}()
	}
	wg.Wait()
	if got := len(sp.Children()); got != 1600 {
		t.Fatalf("children = %d, want 1600", got)
	}
}

// TestNilTraceZeroAlloc certifies the zero-overhead-off guarantee: the
// full instrumentation surface, driven with a nil trace, allocates
// nothing.
func TestNilTraceZeroAlloc(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Span()
		c := sp.Child("x")
		c.Set("k", "v")
		c.SetInt("n", 1)
		c.SetFloat("f", 0.5)
		c.SetBool("b", true)
		c.SetDur("d", time.Second)
		c.End()
		tr.ColTally().Hit()
		tr.ColTally().Miss()
		tr.IdxTally().Bypass()
		tr.Finish()
		_ = tr.Lines()
		_, _, _ = tr.ColTally().Values()
	})
	if allocs != 0 {
		t.Fatalf("nil-trace instrumentation allocated %v per run, want 0", allocs)
	}
}

// TestTraceCountsStoreWork checks the trace's store counters and its
// ctx carrier: nil-safe, additive, found only where attached, and free
// of allocations on an untraced ctx.
func TestTraceCountsStoreWork(t *testing.T) {
	var nilTr *Trace
	nilTr.AddRead(10, time.Millisecond) // must not panic
	nilTr.AddRetry()
	if r, b, d := nilTr.Reads(); r != 0 || b != 0 || d != 0 || nilTr.Retries() != 0 {
		t.Fatalf("nil trace reads = %d/%d/%v, retries %d", r, b, d, nilTr.Retries())
	}

	tr := NewTrace("q")
	tr.AddRead(100, 2*time.Millisecond)
	tr.AddRead(50, time.Millisecond)
	tr.AddRetry()
	if r, b, d := tr.Reads(); r != 2 || b != 150 || d != 3*time.Millisecond {
		t.Fatalf("reads = %d / %d bytes / %v, want 2/150/3ms", r, b, d)
	}
	if got := tr.Retries(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}

	bg := context.Background()
	if got := TraceFrom(WithTrace(bg, tr)); got != tr {
		t.Fatal("TraceFrom did not return the attached trace")
	}
	var nilCtx context.Context
	if TraceFrom(bg) != nil || TraceFrom(nilCtx) != nil {
		t.Fatal("TraceFrom on a bare or nil ctx should be nil")
	}
	if WithTrace(bg, nil) != bg {
		t.Fatal("WithTrace(nil) should return ctx unchanged")
	}
	ctx := WithTraceID(bg, "abc")
	if allocs := testing.AllocsPerRun(100, func() { TraceFrom(ctx).AddRetry() }); allocs != 0 {
		t.Fatalf("TraceFrom on an untraced ctx allocated %v per run, want 0", allocs)
	}
}

// TestStatementLifecycle: a statement is traced when ctx brings a trace
// or the sampler picks it, gets an ID either way, and lands in the ring
// when it ends; a statement left out gets its ctx back unchanged,
// without allocating.
func TestStatementLifecycle(t *testing.T) {
	off := &Sampler{}
	bg := context.Background()
	if allocs := testing.AllocsPerRun(100, func() {
		ctx, tr := off.StartStatement(bg, "query", "select", time.Millisecond)
		tr.EndStatement("select", "SELECT 1", time.Millisecond, nil, false)
		if ctx != bg || tr != nil {
			t.Fatal("a statement the sampler skips must stay untraced")
		}
	}); allocs != 0 {
		t.Fatalf("untraced statement allocated %v per run, want 0", allocs)
	}

	brought := NewTrace("query")
	ctx, tr := off.StartStatement(WithTrace(bg, brought), "query", "select", time.Millisecond)
	if tr != brought || TraceFrom(ctx) != brought {
		t.Fatal("a trace ctx brings must be the statement's, sampled or not")
	}
	if tr.ID() == "" || TraceIDFrom(ctx) != tr.ID() {
		t.Fatalf("trace ID %q, ctx ID %q: want one minted and attached", tr.ID(), TraceIDFrom(ctx))
	}
	if tr.Span().Attr("statement") != "select" || len(tr.Span().Children()) != 1 {
		t.Fatalf("root attrs %v, children %d: want statement and a queue span", tr.Span().Attrs(), len(tr.Span().Children()))
	}
	tr.EndStatement("select", strings.Repeat("x", 300), 5*time.Millisecond, errors.New("boom"), true)
	rec := Traces().Snapshot()[0]
	if rec.TraceID != tr.ID() || rec.Statement != "select" || rec.Error != "boom" || !rec.Slow ||
		rec.Duration != 5*time.Millisecond || len(rec.Query) != 203 || rec.Root != tr.Span() {
		t.Fatalf("ring record = %+v", rec)
	}

	every3 := &Sampler{Every: 3}
	traced := 0
	for i := 0; i < 9; i++ {
		if _, tr := every3.StartStatement(bg, "query", "select", 0); tr != nil {
			traced++
		}
	}
	if traced != 3 {
		t.Fatalf("Every=3 traced %d of 9 statements, want 3", traced)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTrace("q")
	sp := tr.Span()
	sp.End()
	d := sp.Duration()
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if sp.Duration() != d {
		t.Fatal("second End must not overwrite the duration")
	}
}

// TestSpanAttrRendering: the typed setters format through strconv, and
// must render exactly what the fmt verbs they replaced rendered —
// EXPLAIN ANALYZE, SHOW TRACES and /debug/traces print these strings.
func TestSpanAttrRendering(t *testing.T) {
	sp := NewTrace("q").Span()
	var want []string
	for _, v := range []int64{0, 1, -1, 42, 1 << 40, math.MinInt64, math.MaxInt64} {
		sp.SetInt("i", v)
		want = append(want, fmt.Sprintf("%d", v))
	}
	for _, v := range []float64{0, 0.5, 0.25, 1, 1.23456789, 12345.678, 1e6, 1e21, 1e-7, 2.0 / 3, -3.14159,
		math.Inf(1), math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64, math.MaxFloat64} {
		sp.SetFloat("f", v)
		want = append(want, fmt.Sprintf("%.4g", v))
	}
	for _, v := range []bool{true, false} {
		sp.SetBool("b", v)
		want = append(want, fmt.Sprintf("%t", v))
	}
	attrs := sp.Attrs()
	if len(attrs) != len(want) {
		t.Fatalf("%d attrs recorded, want %d", len(attrs), len(want))
	}
	for i, a := range attrs {
		if a.Val != want[i] {
			t.Errorf("attr %d (%s) rendered %q, fmt renders %q", i, a.Key, a.Val, want[i])
		}
	}
}

// TestSpanInlineAttrs: a span holds its first four attributes inline;
// a typed setter costs the value string and nothing else, and spilling
// past four keeps every attribute in order.
func TestSpanInlineAttrs(t *testing.T) {
	root := NewTrace("q").Span()
	if allocs := testing.AllocsPerRun(100, func() {
		sp := root.Child("scan") // the span itself (+ the parent's child list growing)
		sp.SetInt("rows", 3000)
		sp.SetInt("candidates", 10)
		sp.SetBool("semantic", false)
		sp.Set("strategy", "pre-filter")
	}); allocs > 4 {
		t.Fatalf("a span with four attributes allocated %.0f times, want <= 4", allocs)
	}
	sp := root.Child("wide")
	for i := 0; i < 9; i++ {
		sp.SetInt("k", int64(i))
	}
	attrs := sp.Attrs()
	if len(attrs) != 9 {
		t.Fatalf("%d attrs, want 9", len(attrs))
	}
	for i, a := range attrs {
		if a.Val != fmt.Sprint(i) {
			t.Fatalf("attr %d = %q after spilling past the inline room", i, a.Val)
		}
	}
}
