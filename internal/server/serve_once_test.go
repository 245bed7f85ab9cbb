package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blendhouse/internal/core"
	"blendhouse/internal/obs"
	"blendhouse/internal/plan"
	"blendhouse/pkg/api"
)

// TestServedSelectParsesOnce is the served twin of core's
// TestVectorQueryAllocsBounded: one SELECT through the handler, the
// batching scheduler and the engine. The statement must reach
// sql.Parse exactly once — routing looks at the first keyword only —
// and a lone query must stay on the handler's goroutine with a bounded
// number of allocations (measured 231 with batching on, 219 off, every
// statement traced as `serve` ships; the budget adds 20 %).
func TestServedSelectParsesOnce(t *testing.T) {
	for _, batching := range []bool{true, false} {
		e := goldenEngine(t, plan.PreFilter, batching)
		s, err := New(Config{Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		raw, _ := json.Marshal(api.QueryRequest{Query: goldenStatements()["sel50"]})
		body := string(raw)
		for i := 0; i < 3; i++ {
			postQuery(t, h, body) // open indexes, fill the column cache and the pools
		}

		parses := obs.Default().Counter("bh.sql.parses")
		solo := obs.Default().Counter("bh.batch.solo")
		p0, s0 := parses.Value(), solo.Value()
		const n = 20
		for i := 0; i < n; i++ {
			postQuery(t, h, body)
		}
		if d := parses.Value() - p0; d != n {
			t.Fatalf("batching=%t: %d statements reached sql.Parse %d times, want once each", batching, n, d)
		}
		// The cost model may still try a group now and then (slow runs
		// under -race make the window look cheap); most must go solo.
		if d := solo.Value() - s0; batching && d < n/2 {
			t.Fatalf("%d serial statements, %d ran solo: the fixture no longer exercises the inline path", n, d)
		}

		if raceEnabled {
			continue // sync.Pool drops items under -race; the bound holds only without it
		}
		const budget = 277
		if allocs := testing.AllocsPerRun(50, func() { postQuery(t, h, body) }); allocs > budget {
			t.Errorf("batching=%t: one served SELECT allocates %.0f times, budget %d", batching, allocs, budget)
		}
	}
}

// TestRoutedSelectThatFailsToParseHoldsNoSlot: routing is by first
// keyword, so a malformed SELECT is routed past per-statement
// admission; it must fail in the engine before it reaches the
// scheduler, as a plan-class 400, having acquired nothing.
func TestRoutedSelectThatFailsToParseHoldsNoSlot(t *testing.T) {
	e := goldenEngine(t, plan.PreFilter, true)
	s, err := New(Config{Engine: e})
	if err != nil {
		t.Fatal(err)
	}
	if !e.BatchRoutes("select id from items where (") || e.BatchRoutes("EXPLAIN SELECT id FROM items") {
		t.Fatal("routing must follow the first keyword: SELECT routes, EXPLAIN SELECT does not")
	}
	admitted := obs.Default().Counter("bh.server.admission.admitted")
	queries := obs.Default().Counter("bh.batch.queries")
	a0, q0 := admitted.Value(), queries.Value()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(`{"query":"SELECT id FROM items WHERE ("}`)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), api.CodePlan) {
		t.Fatalf("status %d body %s, want 400 %s", rec.Code, rec.Body.String(), api.CodePlan)
	}
	if admitted.Value() != a0 || queries.Value() != q0 {
		t.Fatalf("a SELECT that failed to parse was admitted (%d) or submitted (%d)",
			admitted.Value()-a0, queries.Value()-q0)
	}
	if s.Admission().InFlight() != 0 {
		t.Fatalf("%d slots still held", s.Admission().InFlight())
	}
	// The engine itself answers the same class without the server.
	if _, err := e.Query(context.Background(), "SELECT id FROM items WHERE (", core.QueryOptions{}); err == nil {
		t.Fatal("malformed SELECT succeeded")
	}
}
