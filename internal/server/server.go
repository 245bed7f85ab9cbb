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
//	errors      → the engine taxonomy mapped to distinct HTTP statuses
//	              with machine-readable bodies (status.go)
//
// Graceful drain (Server.Drain, wired to SIGTERM in cmd/blendhouse)
// stops accepting statements, answers new ones 503 DRAINING, and lets
// in-flight queries finish up to a drain timeout.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"blendhouse/internal/core"
	"blendhouse/internal/exec"
	"blendhouse/internal/obs"
	"blendhouse/pkg/api"
)

// Backend executes statements for the server. Two implementations
// exist: a single core.Engine (the `serve` shard role, wrapped by
// engineBackend) and the scatter-gather coordinator (internal/coord,
// the `coordinate` role). The server machinery — sessions, admission,
// deadlines, tracing, streaming, error mapping — is identical either
// way; only statement execution differs.
type Backend interface {
	// Query parses and executes one statement (core.Engine.Query's
	// contract: errors match the core taxonomy sentinels).
	Query(ctx context.Context, stmt string, opts core.QueryOptions) (*exec.Result, error)
	// Info describes the node for GET /v1/info.
	Info() api.NodeInfo
}

// engineBackend adapts a core.Engine to the Backend interface.
type engineBackend struct{ e *core.Engine }

func (b engineBackend) Query(ctx context.Context, stmt string, opts core.QueryOptions) (*exec.Result, error) {
	return b.e.Query(ctx, stmt, opts)
}

func (b engineBackend) Info() api.NodeInfo {
	return api.NodeInfo{V: api.Version, Role: api.RoleServer, Tables: b.e.Tables()}
}

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
	// Engine executes the statements (the single-node `serve` role).
	// Exactly one of Engine and Backend must be set.
	Engine *core.Engine
	// Backend executes the statements when the node is not a plain
	// engine host (the coordinator role). Takes precedence over Engine.
	Backend Backend
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
	// SessionMaxParallelism seeds each new session's fan-out override.
	SessionMaxParallelism int
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

// Server hosts the query API over one backend (engine or
// coordinator).
type Server struct {
	cfg      Config
	backend  Backend
	adm      *Admission
	mux      *http.ServeMux
	draining atomic.Bool
	lc       *httpLifecycle

	// batchEngine is non-nil when the engine runs a batching scheduler:
	// SELECTs then skip per-statement admission (the scheduler acquires
	// one slot per formed group through the gate wired in New).
	batchEngine *core.Engine
}

// New builds a server (not yet listening; call Start, or mount
// Handler on a listener of your own).
func New(cfg Config) (*Server, error) {
	backend := cfg.Backend
	if backend == nil {
		if cfg.Engine == nil {
			return nil, fmt.Errorf("server: one of Config.Engine or Config.Backend is required")
		}
		backend = engineBackend{cfg.Engine}
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, backend: backend, adm: NewAdmission(cfg.Admission)}
	if cfg.Backend == nil && cfg.Engine != nil && cfg.Engine.Batcher() != nil {
		// Batching mode: the scheduler admits groups, not statements, so
		// it gets the admission controller as its gate and the handler
		// routes SELECTs around the per-statement Acquire.
		s.batchEngine = cfg.Engine
		cfg.Engine.Batcher().SetGate(s.adm)
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
			return context.WithValue(ctx, sessionKey{},
				NewSession(s.cfg.SessionTimeout, s.cfg.SessionMaxParallelism))
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

// Kill closes the listener and every open connection immediately — no
// drain, no 503s, in-flight statements see their connections reset.
// It exists so chaos tests and the cluster bench can model a shard
// dying abruptly (the kill -9 case) without forking a process.
func (s *Server) Kill() {
	s.draining.Store(true)
	if s.lc != nil {
		s.lc.kill()
	}
}

// sessionKey carries the per-connection *Session in request contexts.
type sessionKey struct{}

// sessionFrom returns the connection's session, or a throwaway one
// when the handler is mounted without ConnContext (httptest).
func (s *Server) sessionFrom(ctx context.Context) *Session {
	if sess, ok := ctx.Value(sessionKey{}).(*Session); ok {
		return sess
	}
	return NewSession(s.cfg.SessionTimeout, s.cfg.SessionMaxParallelism)
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

// handleInfo answers GET /v1/info with the node's role and catalog —
// the shard-role endpoint the coordinator (and operators) use to tell
// what kind of process answers at an address.
func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.backend.Info())
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
		traceID := r.Header.Get(TraceIDHeader)
		if !obs.ValidTraceID(traceID) {
			traceID = obs.NewTraceID()
		}
		w.Header().Set(TraceIDHeader, traceID)
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
			status, code = StatusFor(err)
			writeError(w, err, traceID)
		}
		badRequest := func(httpStatus int, wireCode, msg string) {
			mErrs.Inc()
			status, code = httpStatus, wireCode
			writeJSON(w, httpStatus, ErrorBody{Error: WireError{
				Code: wireCode, Message: msg, TraceID: traceID,
			}})
		}

		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			badRequest(http.StatusMethodNotAllowed, CodeBadRequest, "use POST with a JSON body")
			return
		}
		if s.draining.Load() {
			fail(ErrDraining)
			return
		}
		var req QueryRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
		if err := dec.Decode(&req); err != nil {
			badRequest(http.StatusBadRequest, CodeBadRequest, "bad request body: "+err.Error())
			return
		}
		if strings.TrimSpace(req.Query) == "" {
			badRequest(http.StatusBadRequest, CodeBadRequest, `"query" must be a non-empty SQL statement`)
			return
		}
		// Version gate: 0 (field omitted, every pre-versioned client)
		// reads as version 1; anything newer than this build is refused
		// loudly instead of silently dropping fields it can't know about.
		if req.V > api.Version {
			badRequest(http.StatusBadRequest, CodeBadRequest,
				fmt.Sprintf("wire version %d not supported (this server speaks ≤ %d)", req.V, api.Version))
			return
		}

		// SET statements mutate the session and never reach the engine
		// (or the admission queue — they are free).
		sess := s.sessionFrom(r.Context())
		if handled, msg, err := sess.HandleSet(req.Query); handled {
			if err != nil {
				badRequest(http.StatusBadRequest, CodeSession, err.Error())
				return
			}
			rows = 1
			s.writeResult(w, r, &resultPayload{Columns: []string{"status"}, Rows: [][]any{{msg}}}, start, traceID)
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
		gated := s.batchEngine != nil && sess.Batch() && s.batchEngine.BatchRoutes(req.Query)
		var release func()
		var wait time.Duration
		if !gated {
			var err error
			release, wait, err = s.adm.AcquireTimed(ctx)
			queueWait = wait
			if err != nil {
				fail(queueErr(err))
				return
			}
		}
		res, err := s.backend.Query(ctx, req.Query, core.QueryOptions{
			MaxParallelism: maxPar,
			QueueWait:      wait,
			AllowPartial:   sess.AllowPartial(),
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
		s.writeResult(w, r, &resultPayload{Columns: res.Columns, Rows: res.Rows, Partial: res.Partial}, start, traceID)
	}
}

// queueErr maps an admission failure onto the response taxonomy: a
// deadline/cancel that fired while queued is the same class as one
// that fired mid-query (the statement just never got started).
func queueErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("server: %w (deadline fired while queued for admission)", core.ErrTimeout)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("server: %w (client went away while queued for admission)", core.ErrCanceled)
	}
	return err
}

// resultPayload is what writeResult encodes (the engine result, or a
// synthesized status row).
type resultPayload struct {
	Columns []string
	Rows    [][]any
	Partial bool
}

// writeResult encodes a successful result: NDJSON streaming when the
// client asked for it (Accept: application/x-ndjson), one JSON object
// otherwise.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, res *resultPayload, start time.Time, traceID string) {
	if !strings.Contains(r.Header.Get("Accept"), NDJSONContentType) {
		writeJSON(w, http.StatusOK, QueryResponse{
			Columns:   res.Columns,
			Rows:      res.Rows,
			RowCount:  len(res.Rows),
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
			TraceID:   traceID,
			Partial:   res.Partial,
		})
		return
	}
	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	fl, _ := w.(http.Flusher)
	if err := enc.Encode(StreamHeader{Columns: res.Columns, TraceID: traceID}); err != nil {
		return
	}
	for i, row := range res.Rows {
		if err := enc.Encode(row); err != nil {
			return // client went away; nothing left to signal
		}
		if fl != nil && (i+1)%256 == 0 {
			fl.Flush()
		}
	}
	_ = enc.Encode(StreamTrailer{
		Done:      true,
		RowCount:  len(res.Rows),
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Partial:   res.Partial,
	})
	if fl != nil {
		fl.Flush()
	}
}
