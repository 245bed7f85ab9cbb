package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"blendhouse/pkg/api"
)

// classes lists every sentinel of the failure taxonomy.
var classes = []error{api.ErrTimeout, api.ErrCanceled, api.ErrUnknownTable,
	api.ErrPlan, api.ErrShed, api.ErrDraining}

// served runs err through writeError and returns the status, the
// decoded wire error and the Retry-After header.
func served(t *testing.T, err error) (int, api.WireError, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	writeError(rec, err, "trace-1")
	var body api.ErrorBody
	if derr := json.Unmarshal(rec.Body.Bytes(), &body); derr != nil {
		t.Fatalf("error body %q: %v", rec.Body.String(), derr)
	}
	if body.Error.TraceID != "trace-1" || body.Error.Message != err.Error() {
		t.Errorf("body %+v lost the trace ID or the message of %v", body.Error, err)
	}
	return rec.Code, body.Error, rec.Header().Get("Retry-After")
}

// TestStatusMappingExhaustive serves every taxonomy sentinel and
// asserts each gets a distinct, non-500 status with a non-INTERNAL
// code. A class added without a status fails here.
func TestStatusMappingExhaustive(t *testing.T) {
	seenStatus := map[int]error{}
	seenCode := map[string]error{}
	for _, sentinel := range classes {
		// Wrapped the way real errors arrive (fmt.Errorf %w chains).
		err := fmt.Errorf("outer: %w", fmt.Errorf("core: %w (cause)", sentinel))
		status, wire, _ := served(t, err)
		if status == http.StatusInternalServerError || wire.Code == api.CodeInternal {
			t.Errorf("taxonomy sentinel %v unmapped: got %d %s", sentinel, status, wire.Code)
			continue
		}
		if prev, dup := seenStatus[status]; dup {
			t.Errorf("status %d shared by %v and %v", status, prev, sentinel)
		}
		if prev, dup := seenCode[wire.Code]; dup {
			t.Errorf("code %s shared by %v and %v", wire.Code, prev, sentinel)
		}
		seenStatus[status] = sentinel
		seenCode[wire.Code] = sentinel
	}
}

func TestStatusMappingServingErrors(t *testing.T) {
	cases := []struct {
		err        error
		wantStatus int
		wantCode   string
	}{
		{fmt.Errorf("x: %w", api.ErrShed), http.StatusTooManyRequests, api.CodeShed},
		{fmt.Errorf("x: %w", api.ErrDraining), http.StatusServiceUnavailable, api.CodeDraining},
		{api.ErrTimeout, http.StatusGatewayTimeout, api.CodeTimeout},
		{api.ErrCanceled, api.StatusClientClosedRequest, api.CodeCanceled},
		{api.ErrUnknownTable, http.StatusNotFound, api.CodeUnknownTable},
		{api.ErrPlan, http.StatusBadRequest, api.CodePlan},
		{errors.New("disk on fire"), http.StatusInternalServerError, api.CodeInternal},
	}
	for _, c := range cases {
		status, wire, _ := served(t, c.err)
		if status != c.wantStatus || wire.Code != c.wantCode {
			t.Errorf("writeError(%v) = %d %s, want %d %s", c.err, status, wire.Code, c.wantStatus, c.wantCode)
		}
	}
}

// TestRetryableContract pins which served failures promise the
// statement never executed — the contract pkg/client's retry policy
// relies on: only SHED and DRAINING say retryable, and only they carry
// a Retry-After hint.
func TestRetryableContract(t *testing.T) {
	for _, sentinel := range append(classes, errors.New("disk on fire")) {
		_, wire, retryAfter := served(t, fmt.Errorf("x: %w", sentinel))
		want := wire.Code == api.CodeShed || wire.Code == api.CodeDraining
		if wire.Retryable != want {
			t.Errorf("%s: retryable = %v, want %v", wire.Code, wire.Retryable, want)
		}
		if (retryAfter != "") != want {
			t.Errorf("%s: Retry-After = %q, want one only when retryable", wire.Code, retryAfter)
		}
	}
}
