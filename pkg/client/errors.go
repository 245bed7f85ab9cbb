package client

import (
	"errors"
	"fmt"

	"blendhouse/pkg/api"
)

// APIError is a structured server error response. Unwrap yields the
// sentinel of the failure taxonomy in pkg/api that its code stands
// for, so errors.Is(err, api.ErrPlan) and errors.As(err, *APIError)
// both work on the same value. Every other error returned by Query /
// Exec / QueryStream matches a sentinel too where it has a class: the
// caller's context deadline is api.ErrTimeout, its cancellation
// api.ErrCanceled. SHED and DRAINING are retried automatically and
// surface only once retries exhaust.
type APIError struct {
	// StatusCode is the HTTP status the server answered with.
	StatusCode int
	// Code is the machine-readable code from the error body
	// (TIMEOUT, SHED, …).
	Code string
	// Message is the human-readable server message.
	Message string
	// Retryable reports the server's promise that the statement never
	// executed (sheds and drains), making resend safe even for DML.
	Retryable bool
	// TraceID is the statement's trace ID (stable across the client's
	// retry attempts), matching the server's access log and
	// /debug/traces — a shed or failed query is greppable server-side.
	TraceID string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server %d %s: %s", e.StatusCode, e.Code, e.Message)
}

// Unwrap maps the wire code onto the taxonomy (api.ErrorFor).
func (e *APIError) Unwrap() error { return api.ErrorFor(e.Code) }

// tracedError wraps a failure that is not an *APIError (context
// expiry, dial failure, retry exhaustion) with the statement's trace
// ID. It is transparent to errors.Is/errors.As via Unwrap.
type tracedError struct {
	err     error
	traceID string
}

func (e *tracedError) Error() string { return e.err.Error() }
func (e *tracedError) Unwrap() error { return e.err }

// withTraceID attaches id to err (no-op on nil err or empty id).
func withTraceID(err error, id string) error {
	if err == nil || id == "" {
		return err
	}
	return &tracedError{err: err, traceID: id}
}

// TraceID extracts the statement trace ID carried by any error
// returned from Query/Exec/QueryStream ("" when the error carries
// none). Use it to correlate a client-side failure with the server's
// access log and /debug/traces.
func TraceID(err error) string {
	for err != nil {
		switch e := err.(type) {
		case *tracedError:
			return e.traceID
		case *APIError:
			return e.TraceID
		}
		err = errors.Unwrap(err)
	}
	return ""
}
