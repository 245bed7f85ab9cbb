package obs

import (
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
