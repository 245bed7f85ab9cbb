package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"blendhouse/pkg/api"
)

// writeJSON writes v with the given status as application/json.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// requestError is a request refused before it reaches the engine: a
// malformed body or wire version (BAD_REQUEST) or a rejected SET
// (SESSION). It carries its own HTTP status and code.
type requestError struct {
	status int
	code   string
	msg    string
}

func (e *requestError) Error() string { return e.msg }

// writeError writes the standard error body for every failure the
// query handler reports, and returns its status and code: a
// requestError's own, any other error's from the taxonomy's status
// table (api.StatusFor). A retryable failure (SHED, DRAINING) gets a
// Retry-After hint so well-behaved clients pace their backoff.
func writeError(w http.ResponseWriter, err error, traceID string) (status int, code string) {
	var re *requestError
	if errors.As(err, &re) {
		status, code = re.status, re.code
	} else {
		status, code = api.StatusFor(err)
	}
	retryable := api.Retryable(code)
	if retryable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, api.ErrorBody{Error: api.WireError{
		Code: code, Message: err.Error(), Retryable: retryable, TraceID: traceID,
	}})
	return status, code
}
