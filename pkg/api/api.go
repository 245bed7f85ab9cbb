// Package api is the single source of truth for BlendHouse's wire
// protocol: the typed request/response/error DTOs exchanged by
// internal/server (the query server) and pkg/client (the Go client),
// and the failure taxonomy (errors.go) that the engine, those two and
// the shell share. Both ends of the wire import the same structs and
// sentinels, so a field or failure class added here shows up on both
// at compile time.
//
// The package deliberately depends only on the standard library so
// pkg/client (which promises a stdlib-only dependency closure to
// embedders) can import it.
package api

// Version is the wire-protocol version this tree speaks. Requests
// carry it in the "v" field; a server answers BAD_REQUEST to versions
// newer than its own, and treats 0 (the field omitted — every
// pre-versioned client) as version 1. Bump it only on breaking shape
// changes; additive optional fields do not need a bump.
const Version = 1

// NDJSONContentType is the streaming response content type of
// /v1/query. A request opts in by sending "Accept:
// application/x-ndjson"; the default is one application/json object.
const NDJSONContentType = "application/x-ndjson"

// TraceIDHeader carries the query trace ID in both directions: a
// client may send one (pkg/client does, keeping it stable across
// retries) and the server always answers with the ID it used — minted
// fresh when the request carried none or an invalid one.
const TraceIDHeader = "X-BH-Trace-Id"

// QueryRequest is the POST body of /v1/query and /v1/exec.
type QueryRequest struct {
	// V is the wire-protocol version (0 = pre-versioned, read as 1).
	V int `json:"v,omitempty"`
	// Query is one SQL statement (the shell dialect, plus SET
	// statement_timeout / max_parallelism handled session-side).
	Query string `json:"query"`
	// TimeoutMS bounds this statement (0 = session default). The
	// deadline propagates into Engine.Query, so expiry cancels segment
	// scans and remote reads, not just the response.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxParallelism overrides per-query segment fan-out
	// (0 = session default, then engine default).
	MaxParallelism int `json:"max_parallelism,omitempty"`
}

// QueryResponse is the non-streaming (application/json) result.
// Numeric row values decode as whatever the reader's decoder chooses;
// pkg/client uses json.Number to stay byte-faithful to this wire
// form.
type QueryResponse struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	RowCount  int      `json:"row_count"`
	ElapsedMS float64  `json:"elapsed_ms"`
	TraceID   string   `json:"trace_id,omitempty"`
}

// StreamHeader is the first NDJSON line of a streaming response.
type StreamHeader struct {
	Columns []string `json:"columns"`
	TraceID string   `json:"trace_id,omitempty"`
}

// StreamTrailer is the last NDJSON line: either Done with the row
// count, or Error when execution failed after the header was sent
// (the HTTP status is already 200 by then; the trailer is the only
// place left to signal failure).
type StreamTrailer struct {
	Done      bool       `json:"done"`
	RowCount  int        `json:"row_count"`
	ElapsedMS float64    `json:"elapsed_ms"`
	Error     *WireError `json:"error,omitempty"`
}

// WireError is the machine-readable error body. Code is one of the
// Code* constants (errors.go); clients branch on it (or on the HTTP
// status) instead of parsing messages.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Retryable promises the statement never executed, so resending is
	// safe even for INSERT/DELETE.
	Retryable bool `json:"retryable"`
	// TraceID correlates the failure with server-side logs and traces.
	TraceID string `json:"trace_id,omitempty"`
}

// ErrorBody wraps WireError as the top-level JSON error response.
type ErrorBody struct {
	Error WireError `json:"error"`
}

// RoleServer is the node role /v1/info reports: a query server over
// one engine, the only kind of process that answers the API.
const RoleServer = "server"

// NodeInfo is the GET /v1/info response: what kind of process answers
// at this address and what it hosts.
type NodeInfo struct {
	V    int    `json:"v"`
	Role string `json:"role"`
	// Tables lists the node's catalog.
	Tables []string `json:"tables,omitempty"`
}
