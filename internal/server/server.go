// Package server is BlendHouse's network serving tier: an HTTP/JSON
// query server wrapping core.Engine, giving the engine the wire
// boundary the paper assumes (vector search served from virtual
// warehouses to "millions of users"). The layer cake per statement:
//
//	connection  → per-connection Session (SET statement_timeout, …)
//	admission   → semaphore + bounded wait queue, 429 sheds (admission.go)
//	deadline    → client timeout becomes a context deadline BEFORE the
//	              queue wait, and propagates into Engine.Query
//	execution   → core.Engine.Query (PR 2 context-first API)
//	encoding    → application/json, or NDJSON streaming for large results
//	errors      → the failure taxonomy mapped to distinct HTTP statuses
//	              with machine-readable bodies (pkg/api's status table)
//
// Graceful drain (Server.Drain, wired to SIGTERM in cmd/blendhouse)
// stops accepting statements, answers new ones 503 DRAINING, and lets
// in-flight queries finish up to a drain timeout.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"blendhouse/internal/core"
	"blendhouse/internal/obs"
	"blendhouse/pkg/api"
)

// Serving metrics (beyond the bh.server.admission.* family): one
// request counter + error counter + latency histogram per route, plus
// open-session and draining levels.
var (
	mSessions = obs.Default().Gauge("bh.server.sessions")
	mDraining = obs.Default().Gauge("bh.server.draining")
)

// serverLog is the access log: one INFO record per statement request
// with route, status, latency, queue wait, row count and — injected
// from the request context — the trace ID.
var serverLog = obs.Logger("server")

// maxRequestBody bounds one statement body (INSERT batches arrive as
// SQL text, so this is generous).
const maxRequestBody = 64 << 20

// Config assembles a Server.
type Config struct {
	// Engine executes the statements (required).
	Engine *core.Engine
	// Addr is the listen address (default "127.0.0.1:8428").
	Addr string
	// Admission sizes the admission controller (zero = defaults).
	Admission AdmissionConfig
	// DrainTimeout bounds graceful drain; queries still running after
	// it are force-closed (default 10s).
	DrainTimeout time.Duration
	// SessionTimeout seeds each new session's statement timeout
	// (0 = none; clients adjust with SET statement_timeout).
	SessionTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8428"
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Server hosts the query API over one engine.
type Server struct {
	cfg      Config
	adm      *Admission
	mux      *http.ServeMux
	draining atomic.Bool
	lc       *httpLifecycle
}

// New builds a server (not yet listening; call Start, or mount
// Handler on a listener of your own).
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: Config.Engine is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, adm: NewAdmission(cfg.Admission)}
	if b := cfg.Engine.Batcher(); b != nil {
		// Batching mode: the scheduler admits groups, not statements, so
		// it gets the admission controller as its gate and the handler
		// routes SELECTs around the per-statement Acquire.
		b.SetGate(s.adm)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/query", s.statementHandler("query"))
	s.mux.HandleFunc("/v1/exec", s.statementHandler("exec"))
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/v1/info", s.handleInfo)
	return s, nil
}

// Handler returns the route handler (for tests and embedding). When
// mounted outside Start, requests fall back to one fresh session each
// — SET has no durable effect without per-connection contexts.
func (s *Server) Handler() http.Handler { return s.mux }

// Admission exposes the admission controller (tests, health).
func (s *Server) Admission() *Admission { return s.adm }

// Start binds the configured address and serves in the background.
// Bind errors return synchronously; later serve failures surface on
// Err.
func (s *Server) Start() error {
	hs := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ConnContext: func(ctx context.Context, c net.Conn) context.Context {
			return context.WithValue(ctx, sessionKey{}, NewSession(s.cfg.SessionTimeout))
		},
		ConnState: func(c net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				mSessions.Inc()
			case http.StateClosed, http.StateHijacked:
				mSessions.Dec()
			}
		},
	}
	lc, err := startHTTP(hs, s.cfg.Addr)
	if err != nil {
		return err
	}
	s.lc = lc
	return nil
}

// Addr reports the bound address once started (resolves ":0").
func (s *Server) Addr() string {
	if s.lc == nil {
		return s.cfg.Addr
	}
	return s.lc.addr()
}

// Err delivers the serve loop's terminal error (nil after clean
// drain). Only valid after Start.
func (s *Server) Err() <-chan error { return s.lc.err }

// Drain gracefully shuts down: new statements are answered 503
// DRAINING immediately, the listener closes, and in-flight statements
// get up to Config.DrainTimeout to finish before being force-closed.
// Idempotent; concurrent callers share one shutdown.
func (s *Server) Drain() error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	mDraining.Set(1)
	if s.lc == nil {
		return nil
	}
	return s.lc.drain(s.cfg.DrainTimeout)
}

// sessionKey carries the per-connection *Session in request contexts.
type sessionKey struct{}

// sessionFrom returns the connection's session, or a throwaway one
// when the handler is mounted without ConnContext (httptest).
func (s *Server) sessionFrom(ctx context.Context) *Session {
	if sess, ok := ctx.Value(sessionKey{}).(*Session); ok {
		return sess
	}
	return NewSession(s.cfg.SessionTimeout)
}

// handleHealth answers load balancers: 200 while serving, 503 once
// draining, with live admission levels either way.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status, state := http.StatusOK, "ok"
	if s.draining.Load() {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, status, map[string]any{
		"status":    state,
		"in_flight": s.adm.InFlight(),
		"queued":    s.adm.Queued(),
	})
}

// handleInfo answers GET /v1/info with the node's role and catalog,
// so an operator can tell what kind of process answers at an address.
func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.NodeInfo{V: api.Version, Role: api.RoleServer, Tables: s.cfg.Engine.Tables()})
}

// statementHandler builds the handler shared by /v1/query and
// /v1/exec. The two routes run identical machinery but meter
// separately, so dashboards can split interactive reads from
// DDL/ingest traffic.
func (s *Server) statementHandler(route string) http.HandlerFunc {
	var (
		mReqs = obs.Default().Counter("bh.server." + route + ".total")
		mErrs = obs.Default().Counter("bh.server." + route + ".errors")
		mLat  = obs.Default().Histogram("bh.server.latency." + route)
	)
	return func(w http.ResponseWriter, r *http.Request) {
		mReqs.Inc()
		start := obs.Now()

		// Trace context: accept the client's X-BH-Trace-Id (pkg/client
		// keeps it stable across retries) or mint one, echo it in the
		// response header immediately, and carry it in the request
		// context so every layer's logs and the span tree share it.
		traceID := r.Header.Get(api.TraceIDHeader)
		if !obs.ValidTraceID(traceID) {
			traceID = obs.NewTraceID()
		}
		w.Header().Set(api.TraceIDHeader, traceID)
		ctx := obs.WithTraceID(r.Context(), traceID)

		status := http.StatusOK
		code := ""
		rows := -1
		var queueWait time.Duration
		defer func() {
			lat := time.Since(start)
			mLat.Observe(lat)
			attrs := []any{
				"route", route,
				"status", status,
				"latency_ms", float64(lat.Microseconds()) / 1000,
				"queue_wait_ms", float64(queueWait.Microseconds()) / 1000,
			}
			if code != "" {
				attrs = append(attrs, "code", code)
			}
			if rows >= 0 {
				attrs = append(attrs, "rows", rows)
			}
			serverLog.InfoContext(ctx, "request", attrs...)
		}()
		fail := func(err error) {
			mErrs.Inc()
			status, code = writeError(w, err, traceID)
		}

		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			fail(&requestError{http.StatusMethodNotAllowed, api.CodeBadRequest, "use POST with a JSON body"})
			return
		}
		if s.draining.Load() {
			fail(api.ErrDraining)
			return
		}
		var req api.QueryRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
		if err := dec.Decode(&req); err != nil {
			fail(&requestError{http.StatusBadRequest, api.CodeBadRequest, "bad request body: " + err.Error()})
			return
		}
		if strings.TrimSpace(req.Query) == "" {
			fail(&requestError{http.StatusBadRequest, api.CodeBadRequest, `"query" must be a non-empty SQL statement`})
			return
		}
		// Version gate: 0 (field omitted, every pre-versioned client)
		// reads as version 1; anything newer than this build is refused
		// loudly instead of silently dropping fields it can't know about.
		if req.V > api.Version {
			fail(&requestError{http.StatusBadRequest, api.CodeBadRequest,
				fmt.Sprintf("wire version %d not supported (this server speaks ≤ %d)", req.V, api.Version)})
			return
		}

		// SET statements mutate the session and never reach the engine
		// (or the admission queue — they are free).
		sess := s.sessionFrom(r.Context())
		if handled, msg, err := sess.HandleSet(req.Query); handled {
			if err != nil {
				fail(&requestError{http.StatusBadRequest, api.CodeSession, err.Error()})
				return
			}
			rows = 1
			s.writeResult(w, r, []string{"status"}, [][]any{{msg}}, start, traceID)
			return
		}

		// The statement deadline starts BEFORE the admission wait:
		// time spent queued counts against the client's budget, so a
		// saturated server times out instead of stretching latency.
		timeout := sess.Timeout()
		if req.TimeoutMS > 0 {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
		maxPar := sess.MaxParallelism()
		if req.MaxParallelism > 0 {
			maxPar = req.MaxParallelism
		}
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}

		// Batching: routed SELECTs skip per-statement admission — the
		// scheduler acquires one slot per formed group, so a group of N
		// queries occupies one engine slot, the throughput-multiplier
		// contract. Everything else (DML, DDL, SHOW, sessions that SET
		// batch = off) is admitted here as before.
		gated := s.cfg.Engine.BatchRoutes(req.Query) && sess.Batch()
		var release func()
		var wait time.Duration
		if !gated {
			var err error
			release, wait, err = s.adm.AcquireTimed(ctx)
			queueWait = wait
			if err != nil {
				// A deadline or cancel that fired while queued is the same
				// class as one that fired mid-query: the statement just never
				// got started.
				fail(api.ContextErr(fmt.Errorf("server: queued for admission: %w", err)))
				return
			}
		}
		res, err := s.cfg.Engine.Query(ctx, req.Query, core.QueryOptions{
			MaxParallelism: maxPar,
			QueueWait:      wait,
			DisableBatch:   !gated,
		})
		if release != nil {
			release()
		}
		if err != nil {
			fail(err)
			return
		}
		rows = len(res.Rows)
		s.writeResult(w, r, res.Columns, res.Rows, start, traceID)
	}
}

// writeResult encodes a successful result: NDJSON streaming when the
// client asked for it (Accept: application/x-ndjson), one JSON object
// otherwise.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, columns []string, rows [][]any, start time.Time, traceID string) {
	if !strings.Contains(r.Header.Get("Accept"), api.NDJSONContentType) {
		writeJSON(w, http.StatusOK, api.QueryResponse{
			Columns:   columns,
			Rows:      rows,
			RowCount:  len(rows),
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
			TraceID:   traceID,
		})
		return
	}
	w.Header().Set("Content-Type", api.NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	if err := enc.Encode(api.StreamHeader{Columns: columns, TraceID: traceID}); err != nil {
		return
	}
	for i, row := range rows {
		if err := enc.Encode(row); err != nil {
			return // client went away; nothing left to signal
		}
		if fl != nil && (i+1)%256 == 0 {
			fl.Flush()
		}
	}
	_ = enc.Encode(api.StreamTrailer{
		Done:      true,
		RowCount:  len(rows),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	})
	if fl != nil {
		fl.Flush()
	}
}
