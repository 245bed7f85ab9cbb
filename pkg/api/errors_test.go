package api

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
)

// TestTaxonomy pins the one table from failure class to wire: every
// class has its own status and code, a wrapped sentinel maps to them,
// the code maps back to the same sentinel, and only SHED and DRAINING
// promise a safe resend. A class added to the sentinels without a row
// here, or a row that drifts, fails.
func TestTaxonomy(t *testing.T) {
	cases := []struct {
		err       error
		status    int
		code      string
		retryable bool
	}{
		{ErrTimeout, http.StatusGatewayTimeout, CodeTimeout, false},
		{ErrCanceled, StatusClientClosedRequest, CodeCanceled, false},
		{ErrUnknownTable, http.StatusNotFound, CodeUnknownTable, false},
		{ErrPlan, http.StatusBadRequest, CodePlan, false},
		{ErrShed, http.StatusTooManyRequests, CodeShed, true},
		{ErrDraining, http.StatusServiceUnavailable, CodeDraining, true},
	}
	if len(cases) != len(classes) {
		t.Fatalf("%d classes in the table, %d pinned here", len(classes), len(cases))
	}
	seenStatus := map[int]error{}
	seenCode := map[string]error{}
	for _, c := range cases {
		// Wrapped the way real errors arrive (fmt.Errorf %w chains).
		err := fmt.Errorf("outer: %w", fmt.Errorf("core: %w (cause)", c.err))
		status, code := StatusFor(err)
		if status != c.status || code != c.code {
			t.Errorf("StatusFor(%v) = %d %s, want %d %s", err, status, code, c.status, c.code)
		}
		if prev, dup := seenStatus[status]; dup {
			t.Errorf("status %d shared by %v and %v", status, prev, c.err)
		}
		if prev, dup := seenCode[code]; dup {
			t.Errorf("code %s shared by %v and %v", code, prev, c.err)
		}
		seenStatus[status], seenCode[code] = c.err, c.err
		if back := ErrorFor(code); !errors.Is(back, c.err) {
			t.Errorf("ErrorFor(%s) = %v, want %v", code, back, c.err)
		}
		if got := Retryable(code); got != c.retryable {
			t.Errorf("Retryable(%s) = %t, want %t", code, got, c.retryable)
		}
	}
	for _, code := range []string{CodeBadRequest, CodeSession} {
		if got := ErrorFor(code); got != ErrPlan {
			t.Errorf("ErrorFor(%s) = %v, want ErrPlan", code, got)
		}
		if Retryable(code) {
			t.Errorf("Retryable(%s) = true", code)
		}
	}
	if got := ErrorFor(CodeInternal); got != nil {
		t.Errorf("ErrorFor(INTERNAL) = %v, want no class", got)
	}
	if status, code := StatusFor(errors.New("disk on fire")); status != http.StatusInternalServerError || code != CodeInternal {
		t.Errorf("an unclassified error maps to %d %s, want 500 INTERNAL", status, code)
	}
}
