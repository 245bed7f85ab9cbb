package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"blendhouse/pkg/api"
)

// traceRecorder wraps a scripted server and records the X-BH-Trace-Id
// header of every request it sees.
func traceRecorder(t *testing.T, script ...func(w http.ResponseWriter)) (*httptest.Server, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var seen []string
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get("X-BH-Trace-Id"))
		n := calls
		calls++
		mu.Unlock()
		if n >= len(script) {
			n = len(script) - 1
		}
		script[n](w)
	}))
	t.Cleanup(srv.Close)
	return srv, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), seen...)
	}
}

// TestTraceIDStableAcrossRetries is the satellite contract: every
// retry attempt of one statement carries the SAME X-BH-Trace-Id, so
// server-side logs show the retries as one logical query.
func TestTraceIDStableAcrossRetries(t *testing.T) {
	srv, headers := traceRecorder(t, shedResponse, shedResponse, okResponse)
	c := newTestClient(t, srv.URL, 4)
	res, err := c.Query(context.Background(), "SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	seen := headers()
	if len(seen) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(seen))
	}
	if seen[0] == "" || len(seen[0]) != 16 {
		t.Fatalf("minted trace ID %q, want 16 hex chars", seen[0])
	}
	if seen[1] != seen[0] || seen[2] != seen[0] {
		t.Fatalf("trace ID changed across retries: %v", seen)
	}
	// The Result carries the statement's ID even when the server's body
	// omits it (okResponse has no trace_id field).
	if res.TraceID != seen[0] {
		t.Fatalf("Result.TraceID = %q, want %q", res.TraceID, seen[0])
	}
}

// TestTraceIDCallerSupplied checks Options.TraceID is used verbatim on
// the wire and distinct statements mint distinct IDs.
func TestTraceIDCallerSupplied(t *testing.T) {
	srv, headers := traceRecorder(t, okResponse)
	c := newTestClient(t, srv.URL, 0)
	res, err := c.Query(context.Background(), "SELECT 1", WithTraceID("my-trace-0001"))
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "my-trace-0001" {
		t.Fatalf("Result.TraceID = %q", res.TraceID)
	}
	if _, err := c.Query(context.Background(), "SELECT 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(context.Background(), "SELECT 3"); err != nil {
		t.Fatal(err)
	}
	seen := headers()
	if seen[0] != "my-trace-0001" {
		t.Fatalf("wire header = %q, want caller's ID", seen[0])
	}
	if seen[1] == seen[2] {
		t.Fatalf("two statements share a minted ID: %v", seen)
	}
}

// TestTraceIDOnErrors: the package-level TraceID(err) accessor
// recovers the statement's ID from every failure shape — API errors
// (body or header), retry exhaustion, and decode failures.
func TestTraceIDOnErrors(t *testing.T) {
	t.Run("api_error_body", func(t *testing.T) {
		srv, _ := traceRecorder(t, func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(api.ErrorBody{Error: api.WireError{
				Code: "PLAN", Message: "nope", TraceID: "server-echoed-id",
			}})
		})
		c := newTestClient(t, srv.URL, 0)
		_, err := c.Query(context.Background(), "SELEC 1")
		if !errors.Is(err, api.ErrPlan) {
			t.Fatalf("want api.ErrPlan, got %v", err)
		}
		if got := TraceID(err); got != "server-echoed-id" {
			t.Fatalf("TraceID(err) = %q, want server-echoed-id", got)
		}
	})
	t.Run("retry_exhaustion", func(t *testing.T) {
		srv, headers := traceRecorder(t, shedResponse)
		c := newTestClient(t, srv.URL, 1)
		_, err := c.Query(context.Background(), "SELECT 1")
		if !errors.Is(err, api.ErrShed) {
			t.Fatalf("want api.ErrShed, got %v", err)
		}
		seen := headers()
		if got := TraceID(err); got == "" || got != seen[0] {
			t.Fatalf("TraceID(err) = %q, want the wire ID %q", got, seen[0])
		}
	})
	t.Run("no_trace", func(t *testing.T) {
		if got := TraceID(errors.New("plain")); got != "" {
			t.Fatalf("TraceID(plain error) = %q, want empty", got)
		}
		if got := TraceID(nil); got != "" {
			t.Fatalf("TraceID(nil) = %q, want empty", got)
		}
	})
}

// TestStreamTraceID: the stream surfaces its ID from the server's
// header frame.
func TestStreamTraceID(t *testing.T) {
	srv, _ := traceRecorder(t, func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.Encode(map[string]any{"columns": []string{"x"}, "trace_id": "stream-id-7"})
		enc.Encode([]any{1})
		enc.Encode(map[string]any{"done": true, "row_count": 1})
	})
	c := newTestClient(t, srv.URL, 0)
	st, err := c.QueryStream(context.Background(), "SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.TraceID() != "stream-id-7" {
		t.Fatalf("Stream.TraceID = %q", st.TraceID())
	}
}
