package server

import (
	"encoding/json"
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

// writeError maps err through the taxonomy's status table
// (api.StatusFor) and writes the standard error body. A retryable
// failure (SHED, DRAINING) gets a Retry-After hint so well-behaved
// clients pace their backoff.
func writeError(w http.ResponseWriter, err error, traceID string) {
	status, code := api.StatusFor(err)
	retryable := api.Retryable(code)
	if retryable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, api.ErrorBody{Error: api.WireError{
		Code: code, Message: err.Error(), Retryable: retryable, TraceID: traceID,
	}})
}
