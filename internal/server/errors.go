// The HTTP error contract of the serving core: every error response is a
// JSON body with the stable shape {"error": <message>, "code": <slug>},
// including the mux fallback paths (unknown routes, method mismatches) that
// net/http would otherwise answer with plain text. The code slug is derived
// from the status so clients can switch on it without parsing messages.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"topk/internal/admit"
	"topk/internal/ranking"
)

// statusClientClosedRequest is nginx's 499: the client went away before the
// response. No standard code covers it, and logging these separately from
// real 5xx failures is exactly why nginx invented it.
const statusClientClosedRequest = 499

// errorCode maps a status onto the stable machine-readable slug of the
// error body. Unlisted statuses render as "http_<status>" so the shape
// holds even for codes this server never emits today.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusTooManyRequests:
		return "too_many_requests"
	case statusClientClosedRequest:
		return "client_closed"
	case http.StatusInternalServerError:
		return "internal"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "timeout"
	}
	return fmt.Sprintf("http_%d", status)
}

// errorBody is the JSON shape of every error response.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: errorCode(status)})
}

// writeSearchError maps a query-path failure onto the HTTP contract:
// client cancellation is 499, a blown deadline is 504 Gateway Timeout, a
// query the index rejects is 400 — the handler checked it against the size
// it saw, and an insert into an empty collection may define another before
// the search runs — and only genuine internal failures surface as 500.
func writeSearchError(w http.ResponseWriter, what string, err error) {
	switch {
	case errors.Is(err, ranking.ErrSizeMismatch), errors.Is(err, ranking.ErrDuplicateItem):
		httpError(w, http.StatusBadRequest, "%s: %v", what, err)
	case errors.Is(err, context.Canceled):
		httpError(w, statusClientClosedRequest, "%s canceled by client", what)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "%s deadline exceeded", what)
	default:
		httpError(w, http.StatusInternalServerError, "%s: %v", what, err)
	}
}

// writeShedError maps an admission failure: overload sheds are 429 Too Many
// Requests with Retry-After so well-behaved clients back off; a request
// whose own context died while queued reports like any other cancellation.
func writeShedError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, admit.ErrQueueFull), errors.Is(err, admit.ErrWaitTimeout):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "server overloaded: %v", err)
	default:
		writeSearchError(w, "admission", err)
	}
}
