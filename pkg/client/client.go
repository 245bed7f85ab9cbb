// Package client is the Go client for a BlendHouse query server
// (internal/server, hosted by `blendhouse serve`). It speaks the
// /v1/query + /v1/exec JSON protocol with:
//
//   - connection reuse — one http.Transport pool per Client, so
//     sequential statements ride one TCP connection and server-side
//     SET session variables persist across them;
//   - retries with jittered exponential backoff, but only on failures
//     the server promises never executed the statement (429 SHED, 503
//     DRAINING) or where the request never reached it (dial errors) —
//     safe even for INSERT/DELETE;
//   - typed errors mirroring the engine taxonomy (errors.go), so
//     remote callers branch on errors.Is(err, client.ErrTimeout)
//     exactly like in-process callers do on core.ErrTimeout;
//   - NDJSON streaming (QueryStream) for results too large to
//     materialize a JSON body for.
//
// Per-statement tuning uses functional options (options.go):
// Query(ctx, q, client.WithTimeout(...), client.WithTraceID(...)).
//
// The package's dependency closure is deliberately stdlib-only plus
// pkg/api — the shared wire-DTO package the server consumes too, so
// the two sides cannot drift.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"blendhouse/pkg/api"
)

// Options is the resolved form of a statement's Option list, built by
// the functional options (WithTimeout, WithMaxParallelism,
// WithTraceID).
type Options struct {
	// Timeout bounds the statement server-side (sent as timeout_ms and
	// enforced inside the engine, queue wait included). 0 = the
	// session's statement_timeout.
	Timeout time.Duration
	// MaxParallelism overrides per-query segment fan-out (0 = session,
	// then engine default).
	MaxParallelism int
	// TraceID correlates the statement with server-side logs and
	// /debug/traces ("" = the client mints one per statement). Whatever
	// ID is used — caller-supplied or minted — is sent as X-BH-Trace-Id
	// on EVERY retry attempt of the statement, surfaces on the Result,
	// and rides any returned error (see TraceID).
	TraceID string
}

// Config assembles a Client.
type Config struct {
	// BaseURL locates the server, e.g. "http://127.0.0.1:8428".
	BaseURL string
	// HTTPClient overrides the transport (nil = a dedicated pooled
	// transport; see New).
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first try
	// (default 4; negative disables retries).
	MaxRetries int
	// RetryBase is the first backoff delay (default 50ms); each retry
	// doubles it, jittered ±50%, capped at RetryMax (default 2s).
	RetryBase time.Duration
	RetryMax  time.Duration
}

// Client talks to one BlendHouse server. Safe for concurrent use.
type Client struct {
	cfg  Config
	http *http.Client

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a client. The default transport keeps idle connections
// alive so sequential statements reuse one connection (and therefore
// one server session).
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("client: Config.BaseURL is required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	} else if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        16,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return &Client{cfg: cfg, http: hc, rng: rand.New(rand.NewSource(time.Now().UnixNano()))}, nil
}

// Result is a materialized remote query result — the wire
// api.QueryResponse verbatim. Numeric values decode as json.Number
// (not float64), preserving the server's exact wire representation.
// TraceID is the ID the server answered with (the one sent in
// X-BH-Trace-Id, echoed back); Partial marks a coordinator result
// assembled from a subset of shards under SET allow_partial = on.
type Result = api.QueryResponse

// traceIDHeader is the shared wire header name.
const traceIDHeader = api.TraceIDHeader

// Query executes one statement and materializes the result.
func (c *Client) Query(ctx context.Context, query string, opts ...Option) (*Result, error) {
	return c.roundTrip(ctx, "/v1/query", query, resolve(opts), "")
}

// Exec executes a DDL/DML statement (CREATE TABLE, INSERT, DELETE,
// OPTIMIZE, SET …) and returns its status result. Exec retries under
// exactly the same never-executed guarantee as Query, so a retried
// INSERT cannot double-apply.
func (c *Client) Exec(ctx context.Context, query string, opts ...Option) (*Result, error) {
	return c.roundTrip(ctx, "/v1/exec", query, resolve(opts), "")
}

// Set adjusts a session variable (SET <name> = <value>) on the
// connection pool's session. Call it before concurrent queries: with
// several pooled connections, only the connection that carried the SET
// remembers it, so per-statement Options are the safer way to tune a
// single query.
func (c *Client) Set(ctx context.Context, name, value string) error {
	_, err := c.Exec(ctx, fmt.Sprintf("SET %s = %s", name, value))
	return err
}

// Close releases idle connections (and with them, server sessions).
func (c *Client) Close() {
	c.http.CloseIdleConnections()
}

// roundTrip posts the statement with retry/backoff and decodes the
// JSON result (or, with accept set, returns the raw response via
// streamResp).
func (c *Client) roundTrip(ctx context.Context, route, query string, opts Options, accept string) (*Result, error) {
	resp, traceID, err := c.doRetry(ctx, route, query, opts, accept)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var res Result
	if err := dec.Decode(&res); err != nil {
		return nil, withTraceID(fmt.Errorf("client: decoding response: %w", err), traceID)
	}
	if res.TraceID == "" {
		res.TraceID = traceID
	}
	return &res, nil
}

// doRetry runs the POST until success, a terminal error, or retry
// exhaustion. Only never-executed failures are retried. One trace ID —
// opts.TraceID, or one minted here — identifies the statement across
// every attempt (NOT per attempt), so server-side logs show the
// retries as one logical query; it is returned alongside the response
// and attached to every error.
func (c *Client) doRetry(ctx context.Context, route, query string, opts Options, accept string) (*http.Response, string, error) {
	req := api.QueryRequest{V: api.Version, Query: query, MaxParallelism: opts.MaxParallelism}
	if opts.Timeout > 0 {
		req.TimeoutMS = opts.Timeout.Milliseconds()
	}
	traceID := opts.TraceID
	if traceID == "" {
		traceID = c.newTraceID()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, traceID, withTraceID(fmt.Errorf("client: encoding request: %w", err), traceID)
	}
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt); err != nil {
				return nil, traceID, withTraceID(wrapCtxErr(err), traceID)
			}
		}
		resp, err := c.post(ctx, route, body, accept, traceID)
		if err != nil {
			if ctx.Err() != nil {
				return nil, traceID, withTraceID(wrapCtxErr(ctx.Err()), traceID)
			}
			if !dialFailure(err) {
				return nil, traceID, withTraceID(fmt.Errorf("client: %w", err), traceID)
			}
			lastErr = fmt.Errorf("client: %w", err) // never reached the server: retry
			continue
		}
		if resp.StatusCode == http.StatusOK {
			return resp, traceID, nil
		}
		apiErr := decodeAPIError(resp)
		if apiErr.TraceID == "" {
			apiErr.TraceID = traceID
		}
		if apiErr.Retryable {
			lastErr = apiErr
			continue
		}
		return nil, traceID, apiErr
	}
	return nil, traceID, withTraceID(
		fmt.Errorf("%w (after %d attempts)", lastErr, c.cfg.MaxRetries+1), traceID)
}

// newTraceID mints a 16-hex-char trace ID from the client's rng (the
// package stays stdlib-only, so it mirrors the server's format rather
// than importing it).
func (c *Client) newTraceID() string {
	c.mu.Lock()
	v := c.rng.Uint64()
	c.mu.Unlock()
	return fmt.Sprintf("%016x", v)
}

func (c *Client) post(ctx context.Context, route string, body []byte, accept, traceID string) (*http.Response, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+route, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(traceIDHeader, traceID)
	if accept != "" {
		hreq.Header.Set("Accept", accept)
	}
	return c.http.Do(hreq)
}

// backoff sleeps the jittered exponential delay for attempt (1-based),
// or returns early with the context's error.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	d := c.cfg.RetryBase << uint(attempt-1)
	if d > c.cfg.RetryMax {
		d = c.cfg.RetryMax
	}
	// Full ±50% jitter decorrelates clients that were shed together —
	// without it they all come back in lockstep and get shed again.
	c.mu.Lock()
	jitter := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	d = time.Duration(float64(d) * jitter)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// wrapCtxErr maps the caller's context errors onto the client
// taxonomy.
func wrapCtxErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// dialFailure reports whether the request never reached the server
// (connection refused/unreachable), which makes a resend safe.
func dialFailure(err error) bool {
	var opErr *net.OpError
	return errors.As(err, &opErr) && opErr.Op == "dial"
}

// decodeAPIError drains resp into an *APIError (synthesizing one when
// the body isn't the standard shape). The trace ID comes from the error
// body, falling back to the response header.
func decodeAPIError(resp *http.Response) *APIError {
	defer resp.Body.Close()
	var eb api.ErrorBody
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code == "" {
		return &APIError{
			StatusCode: resp.StatusCode,
			Code:       api.CodeInternal,
			Message:    strings.TrimSpace(string(data)),
			TraceID:    resp.Header.Get(traceIDHeader),
		}
	}
	traceID := eb.Error.TraceID
	if traceID == "" {
		traceID = resp.Header.Get(traceIDHeader)
	}
	return &APIError{
		StatusCode: resp.StatusCode,
		Code:       eb.Error.Code,
		Message:    eb.Error.Message,
		Retryable:  eb.Error.Retryable,
		TraceID:    traceID,
	}
}
