package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
)

// The failure taxonomy. Every error returned by the engine
// (core.Engine.Query), the serving layer and pkg/client matches at
// most one of these sentinels under errors.Is, so callers branch on
// failure class without string matching; the cause stays in the chain
// beside the sentinel.
var (
	// ErrTimeout: the statement deadline fired (the context's, or the
	// statement_timeout the server enforces).
	ErrTimeout = errors.New("query timed out")
	// ErrCanceled: the caller's context was canceled.
	ErrCanceled = errors.New("query canceled")
	// ErrUnknownTable: the statement names a table not in the catalog.
	ErrUnknownTable = errors.New("unknown table")
	// ErrPlan: the statement failed to parse, plan or validate.
	ErrPlan = errors.New("planning failed")
	// ErrShed: admission control refused the statement (wait queue
	// full, or queued past its timeout). It never started; pkg/client
	// retries it with backoff.
	ErrShed = errors.New("overloaded, request shed")
	// ErrDraining: the server is shutting down gracefully. The
	// statement never started; retry against another replica.
	ErrDraining = errors.New("draining, not accepting statements")
)

// Machine-readable error codes carried in WireError.Code: one per
// failure class, plus BAD_REQUEST (a malformed request body or wire
// version), SESSION (a rejected SET) and INTERNAL (no class).
const (
	CodeTimeout      = "TIMEOUT"
	CodeCanceled     = "CANCELED"
	CodeUnknownTable = "UNKNOWN_TABLE"
	CodePlan         = "PLAN"
	CodeShed         = "SHED"
	CodeDraining     = "DRAINING"
	CodeBadRequest   = "BAD_REQUEST"
	CodeSession      = "SESSION"
	CodeInternal     = "INTERNAL"
)

// StatusClientClosedRequest is nginx's non-standard 499 ("client
// closed request"), the status of a statement that died because the
// caller's context was canceled: no standard 4xx says that, and a 5xx
// would wrongly blame the server.
const StatusClientClosedRequest = 499

// classes is the one table from failure class to wire: its code, its
// HTTP status, and whether the code promises the statement never ran
// (so a resend is safe even for INSERT/DELETE). StatusFor matches in
// this order.
var classes = [...]struct {
	err       error
	code      string
	status    int
	retryable bool
}{
	{ErrTimeout, CodeTimeout, http.StatusGatewayTimeout, false},
	{ErrCanceled, CodeCanceled, StatusClientClosedRequest, false},
	{ErrUnknownTable, CodeUnknownTable, http.StatusNotFound, false},
	{ErrPlan, CodePlan, http.StatusBadRequest, false},
	{ErrShed, CodeShed, http.StatusTooManyRequests, true},
	{ErrDraining, CodeDraining, http.StatusServiceUnavailable, true},
}

// StatusFor maps an error to its HTTP status and wire code; an error
// of no class is 500 INTERNAL.
func StatusFor(err error) (status int, code string) {
	for _, c := range classes {
		if errors.Is(err, c.err) {
			return c.status, c.code
		}
	}
	return http.StatusInternalServerError, CodeInternal
}

// ErrorFor returns the sentinel a wire code stands for. BAD_REQUEST
// and SESSION are the statement's fault too, so they read as ErrPlan;
// INTERNAL and unknown codes have no class (nil).
func ErrorFor(code string) error {
	if code == CodeBadRequest || code == CodeSession {
		return ErrPlan
	}
	for _, c := range classes {
		if c.code == code {
			return c.err
		}
	}
	return nil
}

// Retryable reports whether a wire code promises the statement was
// never executed (SHED, DRAINING): the contract pkg/client's retry
// policy leans on.
func Retryable(code string) bool {
	for _, c := range classes {
		if c.code == code {
			return c.retryable
		}
	}
	return false
}

// ContextErr tags a context deadline with ErrTimeout and a
// cancellation with ErrCanceled, keeping err in the chain so
// errors.Is(err, context.Canceled) still holds. Any other error, and
// nil, passes through unchanged.
func ContextErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}
