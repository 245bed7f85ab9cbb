package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blendhouse/pkg/api"
)

// fakeServer answers each request with the next scripted response.
func fakeServer(t *testing.T, script ...func(w http.ResponseWriter)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(calls.Add(1)) - 1
		if n >= len(script) {
			n = len(script) - 1
		}
		script[n](w)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func shedResponse(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(api.ErrorBody{Error: api.WireError{
		Code: "SHED", Message: "queue full", Retryable: true,
	}})
}

func okResponse(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"columns": []string{"status"}, "rows": [][]any{{"OK"}}, "row_count": 1,
	})
}

func newTestClient(t *testing.T, url string, retries int) *Client {
	t.Helper()
	c, err := New(Config{
		BaseURL:    url,
		MaxRetries: retries,
		RetryBase:  time.Millisecond,
		RetryMax:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestRetriesShedThenSucceeds(t *testing.T) {
	srv, calls := fakeServer(t, shedResponse, shedResponse, okResponse)
	c := newTestClient(t, srv.URL, 4)
	res, err := c.Query(context.Background(), "SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "OK" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 sheds + success)", got)
	}
}

func TestRetriesExhaustSurfaceShed(t *testing.T) {
	srv, calls := fakeServer(t, shedResponse)
	c := newTestClient(t, srv.URL, 2)
	_, err := c.Query(context.Background(), "SELECT 1")
	if !errors.Is(err, api.ErrShed) {
		t.Fatalf("want ErrShed after exhausting retries, got %v", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want APIError 429 in chain, got %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (initial + 2 retries)", got)
	}
}

// TestNoRetryOnNonRetryable pins the safety property: errors without
// the server's never-executed promise are not resent (a retried INSERT
// after a 500 could double-apply).
// TestRetriesOffReturnsTheServersShed: with retries off a 429 is the
// server's *APIError, still ErrShed, and says nothing of attempts.
func TestRetriesOffReturnsTheServersShed(t *testing.T) {
	srv, calls := fakeServer(t, shedResponse)
	c := newTestClient(t, srv.URL, -1)
	_, err := c.Query(context.Background(), "SELECT 1")
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.StatusCode != http.StatusTooManyRequests || !errors.Is(err, api.ErrShed) {
		t.Fatalf("err = %#v, want the server's 429 *APIError matching api.ErrShed", err)
	}
	if msg := err.Error(); strings.Contains(msg, "attempt") {
		t.Fatalf("one attempt reported as a retry run: %q", msg)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1", got)
	}
}

func TestNoRetryOnNonRetryable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		status   int
		code     string
		sentinel error
	}{
		{"internal", http.StatusInternalServerError, "INTERNAL", nil},
		{"plan", http.StatusBadRequest, "PLAN", api.ErrPlan},
		{"timeout", http.StatusGatewayTimeout, "TIMEOUT", api.ErrTimeout},
		{"unknown_table", http.StatusNotFound, "UNKNOWN_TABLE", api.ErrUnknownTable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, calls := fakeServer(t, func(w http.ResponseWriter) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(tc.status)
				json.NewEncoder(w).Encode(api.ErrorBody{Error: api.WireError{Code: tc.code, Message: tc.name}})
			})
			c := newTestClient(t, srv.URL, 4)
			_, err := c.Exec(context.Background(), "INSERT INTO t VALUES (1)")
			if err == nil {
				t.Fatal("want error")
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Fatalf("want %v in chain, got %v", tc.sentinel, err)
			}
			if got := calls.Load(); got != 1 {
				t.Fatalf("server saw %d calls, want 1 (no retries)", got)
			}
		})
	}
}

func TestRetriesDialFailure(t *testing.T) {
	// Reserve an address with nothing listening: dials fail, which is
	// a safe retry; after exhaustion the transport error surfaces.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()
	c := newTestClient(t, url, 2)
	start := time.Now()
	_, err := c.Query(context.Background(), "SELECT 1")
	if err == nil {
		t.Fatal("want error against dead server")
	}
	// 2 retries × ≤5ms jittered backoff: fail fast, not hang.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead-server query took %v", elapsed)
	}
}

func TestContextDeadlineMapsToTimeout(t *testing.T) {
	srv, _ := fakeServer(t, func(w http.ResponseWriter) {
		time.Sleep(200 * time.Millisecond)
		okResponse(w)
	})
	c := newTestClient(t, srv.URL, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := c.Query(ctx, "SELECT 1")
	if !errors.Is(err, api.ErrTimeout) {
		t.Fatalf("want ErrTimeout from ctx deadline, got %v", err)
	}
}

func TestBackoffBounds(t *testing.T) {
	c := newTestClient(t, "http://127.0.0.1:1", 0)
	c.cfg.RetryBase = 10 * time.Millisecond
	c.cfg.RetryMax = 40 * time.Millisecond
	for attempt := 1; attempt <= 6; attempt++ {
		start := time.Now()
		if err := c.backoff(context.Background(), attempt); err != nil {
			t.Fatal(err)
		}
		d := time.Since(start)
		// Jitter is ±25% around min(base<<(n-1), max); sleeping is
		// allowed to overshoot, never to undershoot the jitter floor.
		base := c.cfg.RetryBase << uint(attempt-1)
		if base > c.cfg.RetryMax {
			base = c.cfg.RetryMax
		}
		if d < base/2 {
			t.Fatalf("attempt %d slept %v, below jitter floor %v", attempt, d, base/2)
		}
		if d > 4*base {
			t.Fatalf("attempt %d slept %v, way over cap", attempt, d)
		}
	}
}

// TestBackoffPastShiftWidth: a late retry still waits near the cap.
// Regression: the delay was RetryBase<<(attempt-1), which overflows
// int64 nanoseconds and slept zero from attempt 64 on.
func TestBackoffPastShiftWidth(t *testing.T) {
	c := newTestClient(t, "http://127.0.0.1:1", 0)
	c.cfg.RetryBase = time.Millisecond
	c.cfg.RetryMax = 4 * time.Millisecond
	for _, attempt := range []int{45, 64, 70} {
		start := time.Now()
		if err := c.backoff(context.Background(), attempt); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < 2*time.Millisecond {
			t.Errorf("attempt %d slept %v, want at least 2ms", attempt, d)
		}
	}
}

func TestBackoffRespectsContext(t *testing.T) {
	c := newTestClient(t, "http://127.0.0.1:1", 0)
	c.cfg.RetryBase = time.Minute
	c.cfg.RetryMax = time.Minute
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	start := time.Now()
	err := c.backoff(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("backoff ignored cancellation")
	}
}

func TestAPIErrorUnwrapTable(t *testing.T) {
	for code, want := range map[string]error{
		"TIMEOUT":       api.ErrTimeout,
		"CANCELED":      api.ErrCanceled,
		"UNKNOWN_TABLE": api.ErrUnknownTable,
		"PLAN":          api.ErrPlan,
		"BAD_REQUEST":   api.ErrPlan,
		"SESSION":       api.ErrPlan,
		"SHED":          api.ErrShed,
		"DRAINING":      api.ErrDraining,
	} {
		err := &APIError{StatusCode: 400, Code: code, Message: "m"}
		if !errors.Is(err, want) {
			t.Errorf("code %s does not unwrap to %v", code, want)
		}
	}
	if err := (&APIError{Code: "INTERNAL"}); errors.Is(err, api.ErrPlan) || errors.Is(err, api.ErrShed) {
		t.Error("INTERNAL must not unwrap to a taxonomy sentinel")
	}
}
