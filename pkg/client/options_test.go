package client

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"blendhouse/pkg/api"
)

// TestFunctionalOptions: every With* constructor lands in the wire
// request (or header) exactly like the Options-struct path did — the
// redesign is surface-only.
func TestFunctionalOptions(t *testing.T) {
	var got api.QueryRequest
	var gotTrace string
	srv, _ := fakeServer(t, func(w http.ResponseWriter) {
		respondResult(w)
	})
	defer srv.Close()
	srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTrace = r.Header.Get(api.TraceIDHeader)
		_ = json.NewDecoder(r.Body).Decode(&got)
		respondResult(w)
	})

	c := newTestClient(t, srv.URL, 0)
	_, err := c.Query(context.Background(), "SELECT 1",
		WithTimeout(250*time.Millisecond),
		WithMaxParallelism(3),
		WithTraceID("0123456789abcdef"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got.V != api.Version {
		t.Errorf("request v = %d, want %d", got.V, api.Version)
	}
	if got.TimeoutMS != 250 {
		t.Errorf("timeout_ms = %d, want 250", got.TimeoutMS)
	}
	if got.MaxParallelism != 3 {
		t.Errorf("max_parallelism = %d, want 3", got.MaxParallelism)
	}
	if gotTrace != "0123456789abcdef" {
		t.Errorf("trace header = %q, want the WithTraceID value", gotTrace)
	}
}

// TestQueryOptionOrderEquivalence: the functional options resolve to
// one wire request whatever order they are given in.
func TestQueryOptionOrderEquivalence(t *testing.T) {
	var reqs []api.QueryRequest
	srv, _ := fakeServer(t, func(w http.ResponseWriter) { respondResult(w) })
	defer srv.Close()
	srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var q api.QueryRequest
		_ = json.NewDecoder(r.Body).Decode(&q)
		reqs = append(reqs, q)
		respondResult(w)
	})

	c := newTestClient(t, srv.URL, 0)
	if _, err := c.Query(context.Background(), "SELECT 1",
		WithMaxParallelism(2), WithTimeout(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), "SELECT 1",
		WithTimeout(time.Second), WithMaxParallelism(2)); err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 || reqs[0] != reqs[1] {
		t.Fatalf("option order changed the request: %+v", reqs)
	}
}

// respondResult writes a minimal OK result body.
func respondResult(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(api.QueryResponse{Columns: []string{"x"}, RowCount: 0})
}
