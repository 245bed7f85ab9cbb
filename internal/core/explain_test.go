package core

import (
	"fmt"
	"strings"
	"testing"

	"blendhouse/internal/cache"
)

// explainText flattens a one-column explain result for matching.
func explainText(t *testing.T, e *Engine, src string) string {
	t.Helper()
	res := mustExec(t, e, src)
	if len(res.Columns) != 1 || res.Columns[0] != "explain" {
		t.Fatalf("explain columns = %v", res.Columns)
	}
	var sb strings.Builder
	for _, r := range res.Rows {
		sb.WriteString(r[0].(string))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestExplainPlanOnly(t *testing.T) {
	e := newEngine(t, Config{})
	ds := seedImages(t, e)
	txt := explainText(t, e, fmt.Sprintf(
		"EXPLAIN SELECT id FROM images WHERE score > 0.5 ORDER BY L2Distance(embedding, %s) LIMIT 5",
		vecLit(ds.Queries.Row(0))))
	if !strings.Contains(txt, "plan: ") {
		t.Fatalf("no plan line:\n%s", txt)
	}
	// Plan-only EXPLAIN must not contain the executed span tree.
	if strings.Contains(txt, "executed:") {
		t.Fatalf("plain EXPLAIN executed the query:\n%s", txt)
	}
	if !strings.Contains(txt, "segments") {
		t.Fatalf("no table shape line:\n%s", txt)
	}
}

// TestExplainCountsSegmentKinds: the table line says what each segment
// is. Under auto-index the three segments of 200, 200 and 100 rows are
// all under autoindex.MinIndexRows, so each is an exact flat scan.
func TestExplainCountsSegmentKinds(t *testing.T) {
	for _, c := range []struct {
		auto bool
		want string
	}{
		{true, "table: images (3 segments: 3 flat, 500 rows)"},
		{false, "table: images (3 segments: 3 hnsw, 500 rows)"},
	} {
		e := newEngine(t, Config{AutoIndex: c.auto})
		ds := seedImages(t, e)
		txt := explainText(t, e, fmt.Sprintf(
			"EXPLAIN SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 5", vecLit(ds.Queries.Row(0))))
		if !strings.Contains(txt, c.want+"\n") {
			t.Fatalf("auto-index %t: want %q in\n%s", c.auto, c.want, txt)
		}
	}
}

func TestExplainAnalyzeMultiSegment(t *testing.T) {
	ccCfg := cache.DefaultColumnCacheConfig()
	ccCfg.RowLimit = eN + 1 // admit everything: the tallies must move
	e := newEngine(t, Config{ColumnCache: &ccCfg})
	ds := seedImages(t, e)
	// eN=500 rows at SegmentRows=200 → 3 segments; every one must show
	// up as a scan child span.
	txt := explainText(t, e, fmt.Sprintf(
		"EXPLAIN ANALYZE SELECT id FROM images WHERE score > 0.1 ORDER BY L2Distance(embedding, %s) LIMIT 5",
		vecLit(ds.Queries.Row(0))))
	for _, want := range []string{"plan: ", "executed:", "query  (", "scan  (", "segment ", "cache: column hits="} {
		if !strings.Contains(txt, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, txt)
		}
	}
	if got := strings.Count(txt, "segment "); got < 3 {
		t.Fatalf("want >=3 per-segment spans, got %d:\n%s", got, txt)
	}
	// The chosen plan must be one of the paper's A/B/C letters.
	if !strings.Contains(txt, "plan: A") && !strings.Contains(txt, "plan: B") && !strings.Contains(txt, "plan: C") {
		t.Fatalf("no A/B/C plan letter:\n%s", txt)
	}
	// Column cache was exercised by predicate + projection reads.
	if strings.Contains(txt, "cache: column hits=0 misses=0") {
		t.Fatalf("column cache tallies all zero:\n%s", txt)
	}
}

func TestShowMetricsNonZeroAfterQueries(t *testing.T) {
	e := newEngine(t, Config{})
	ds := seedImages(t, e)
	mustExec(t, e, fmt.Sprintf(
		"SELECT id FROM images ORDER BY L2Distance(embedding, %s) LIMIT 5", vecLit(ds.Queries.Row(0))))
	res := mustExec(t, e, "SHOW METRICS")
	if len(res.Columns) != 2 || res.Columns[0] != "metric" {
		t.Fatalf("columns = %v", res.Columns)
	}
	vals := map[string]int64{}
	for _, r := range res.Rows {
		vals[r[0].(string)] = r[1].(int64)
	}
	if vals["bh.query.total"] == 0 {
		t.Fatalf("bh.query.total = 0 after a query; metrics: %v", vals)
	}
	if vals["bh.query.vector.total"] == 0 {
		t.Fatalf("bh.query.vector.total = 0 after a vector query")
	}
	if vals["bh.query.latency.count"] == 0 {
		t.Fatalf("bh.query.latency.count = 0")
	}
	// The three plan counters must account for every vector query.
	plans := vals["bh.query.plan.brute_force"] + vals["bh.query.plan.pre_filter"] + vals["bh.query.plan.post_filter"]
	if plans < vals["bh.query.vector.total"] {
		t.Fatalf("plan counters (%d) < vector queries (%d)", plans, vals["bh.query.vector.total"])
	}
}

// TestExplainCostsDeterministic: the cost constants are a committed
// table, so two engines over the same data choose the same plans at
// byte-identical estimated costs.
func TestExplainCostsDeterministic(t *testing.T) {
	var texts [2]string
	for i := range texts {
		e := newEngine(t, Config{})
		ds := seedImages(t, e)
		for _, where := range []string{"score > 0.99", "score > 0.5", "label = 'city'"} {
			texts[i] += explainText(t, e, fmt.Sprintf(
				"EXPLAIN SELECT id FROM images WHERE %s ORDER BY L2Distance(embedding, %s) LIMIT 5", where, vecLit(ds.Queries.Row(0))))
		}
	}
	if strings.Count(texts[0], "est_cost: ") != 3 {
		t.Fatalf("want an est_cost line per statement:\n%s", texts[0])
	}
	if texts[0] != texts[1] {
		t.Fatalf("two engines over the same data explain differently:\n%s\nvs\n%s", texts[0], texts[1])
	}
}
