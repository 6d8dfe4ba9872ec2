package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve"
)

// NewHandler exposes a Service over HTTP/JSON:
//
//	POST /v1/predict   {"model","statement"|"statements",["deadline_ms"]}
//	GET  /v1/models
//	POST /v1/deploy    {"model",["version"],["admission"],["queue_size"],["replicas"]}
//	GET  /v1/stats?model=NAME
//	GET  /v1/healthz
//	POST /v1/admin/gc
//	POST /v1/ingest    {"model","statement",["class"],["value"]}
//
// Everything but /v1/predict is mounted from the shared Routes table.
// Request bodies are capped at MaxRequestBytes (413 beyond it).
// Request contexts propagate end to end: a client disconnect or a
// deadline_ms expiry cancels the prediction while it is queued, and
// admission-control rejections surface as 429s attributed to the
// rejecting model's stats. /v1/healthz is the readiness probe: 503
// until the store warm-boot finishes (and after Close), 200 once the
// service is ready to take traffic.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) { handlePredict(s, w, r) })
	for path, rt := range Routes {
		mux.HandleFunc(path, rt.handler(s))
	}
	return mux
}

// handler mounts one route: method check, capped body read, the
// shared Serve, JSON reply.
func (rt Route) handler(s *Service) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != rt.Method {
			httpError(w, http.StatusMethodNotAllowed, errors.New(rt.Method+" required"))
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
		if err != nil {
			err = decodeError(err)
			httpError(w, StatusFor(err), err)
			return
		}
		reply, err := rt.Serve(s, body, r.URL.Query())
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, reply)
		case reply != nil:
			writeStatus(w, StatusFor(err), reply)
		default:
			httpError(w, StatusFor(err), err)
		}
	}
}

// RetryAfterSeconds is the backoff hint sent with every 429 and 503 —
// over HTTP as a Retry-After header, over the wire protocol in the
// error frame — the server-provided pacing the typed client honors in
// place of its own exponential guess.
const RetryAfterSeconds = 1

// predictRequest is the /v1/predict body. Exactly one of Statement or
// Statements must be set.
type predictRequest struct {
	Model      string   `json:"model"`
	Statement  string   `json:"statement,omitempty"`
	Statements []string `json:"statements,omitempty"`
	// DeadlineMs bounds the request server-side (on top of whatever
	// deadline the client connection already carries).
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

type predictResponse struct {
	Results []Prediction `json:"results"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func handlePredict(s *Service, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req predictRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(&req); err != nil {
		err = decodeError(err)
		httpError(w, StatusFor(err), err)
		return
	}
	if req.Model == "" || (req.Statement == "" && len(req.Statements) == 0) {
		httpError(w, http.StatusBadRequest, errors.New("model and statement (or statements) required"))
		return
	}
	ctx := r.Context()
	if req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	stmts := req.Statements
	if len(stmts) == 0 {
		stmts = []string{req.Statement}
	}
	// One batch call: the whole replica pool works the statements
	// concurrently rather than one at a time.
	results, err := s.PredictBatch(ctx, req.Model, stmts)
	if err != nil {
		httpError(w, StatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, predictResponse{Results: results})
}

// StatusFor maps service and context errors onto HTTP statuses. The
// binary wire transport ships exactly these codes in its error frames,
// so the typed-error ↔ sentinel mapping is transport-independent.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrNoIngest):
		// Configuration, not transience: retrying the same node cannot
		// help, and 4xx keeps the client from burning its retry budget.
		return http.StatusBadRequest
	case errors.Is(err, ErrNotDeployed):
		return http.StatusConflict
	case errors.Is(err, serve.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, ErrClosed), errors.Is(err, serve.ErrClosed), errors.Is(err, errWarmingUp):
		return http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrPanicked):
		// A poisoned input took down one inference, not the pool: the
		// request fails, the node stays healthy.
		return http.StatusInternalServerError
	}
	return requestStatus(err)
}

// requestStatus maps request-decoding failures: 413 for a body past
// MaxRequestBytes, 400 for a malformed or invalid one, 500 for
// anything else. Kept out of StatusFor's switch so the predict error
// path never pays for errors.As.
func requestStatus(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, new(badRequestError)):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeStatus(w, status, errorResponse{Error: err.Error()})
}

// writeStatus writes an error-status reply. Overload and
// unavailability responses carry the server's pacing hint; the typed
// client honors it over its own backoff schedule.
func writeStatus(w http.ResponseWriter, status int, v any) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
	}
	writeJSON(w, status, v)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
