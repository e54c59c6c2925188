package gate

import (
	"encoding/json"
	"net/http"
)

// Error codes every JSON error response carries. They are part of the
// public API contract (docs/api.md): clients dispatch on the code, the
// message is for humans and may change freely.
const (
	// CodeBadRequest marks a malformed or semantically invalid request
	// body, parameter or path segment (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeUnauthorized marks a missing or unrecognized tenant token
	// (HTTP 401).
	CodeUnauthorized = "unauthorized"
	// CodeNotFound marks a resource outside the tenant's namespace, such
	// as a worker index out of range (HTTP 404).
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed marks a known route hit with the wrong HTTP
	// method (HTTP 405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeRateLimited marks a request rejected by the tenant's token
	// bucket (HTTP 429 with Retry-After).
	CodeRateLimited = "rate_limited"
	// CodeOverloaded marks a request shed by admission control: the
	// gateway's bounded ingest queue is full (HTTP 429 with Retry-After).
	CodeOverloaded = "overloaded"
	// CodeUpstream marks a backend failure — the coordinator or evaluator
	// behind the tenant failed the operation (HTTP 502).
	CodeUpstream = "upstream"
)

// ErrorDetail is the machine-readable half of an error response: a
// stable code plus a human-readable message.
type ErrorDetail struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message describes the specific failure; not part of the stable API.
	Message string `json:"message"`
}

// ErrorBody is the single JSON error envelope every non-2xx response
// from the gateway uses:
//
//	{"error":{"code":"rate_limited","message":"..."}}
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// writeError writes the unified JSON error envelope with the given HTTP
// status. Every error path of the gateway goes through this one
// function, so clients see exactly one error shape.
func writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//crowdvet:ignore errclass encoding a flat two-string struct fails only when the client hangs up, which needs no handling
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: ErrorDetail{Code: code, Message: message}})
}
