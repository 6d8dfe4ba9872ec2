package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
)

// MaxRequestBytes caps every request body a node accepts, on both
// transports: HTTP bodies are read through http.MaxBytesReader (413
// beyond the cap) and the wire protocol's frame payload cap,
// wire.DefaultMaxPayload, is this same constant.
const MaxRequestBytes = 16 << 20

// Route is one control-plane endpoint, served identically by the HTTP
// handler and the binary wire server: it decodes and validates a
// request, calls the Service, and returns the reply body.
type Route struct {
	// Method is the HTTP method NewHandler requires.
	Method string
	// Serve runs the endpoint. body is the JSON request body (over the
	// wire, the frame payload); query holds the HTTP query parameters
	// and is nil over the wire. Errors map onto statuses through
	// StatusFor. A reply returned together with an error is the HTTP
	// error body (healthz's not-ready document); the wire sends the
	// error alone.
	Serve func(s *Service, body []byte, query url.Values) (any, error)
}

// Routes is the control-plane route table, keyed by HTTP path.
// NewHandler mounts every entry, and the wire server maps each of its
// control message types onto one, so both transports share one
// decode, one validation and one Service call per endpoint.
// Predictions are not in the table: each transport keeps its own fast
// path for them.
var Routes = map[string]Route{
	"/v1/models":   {http.MethodGet, serveModels},
	"/v1/deploy":   {http.MethodPost, serveDeploy},
	"/v1/stats":    {http.MethodGet, serveStats},
	"/v1/healthz":  {http.MethodGet, serveHealthz},
	"/v1/admin/gc": {http.MethodPost, serveGC},
	"/v1/ingest":   {http.MethodPost, serveIngest},
}

// DeployRequest is the deploy body: the model, an optional version
// (0 = latest), and per-deployment pool overrides.
type DeployRequest struct {
	Model   string `json:"model"`
	Version int    `json:"version,omitempty"`
	DeployOptions
}

// StatsRequest names the model whose stats the wire transport's
// MsgStats payload asks for (HTTP sends it as ?model=).
type StatsRequest struct {
	Model string `json:"model"`
}

// GCResponse is the retention pass reply.
type GCResponse struct {
	Results []GCResult `json:"results"`
}

// IngestRequest is the feedback body: a served statement and its
// observed ground-truth outcome (class for classification tasks,
// value in raw units for regression tasks).
type IngestRequest struct {
	Model     string  `json:"model"`
	Statement string  `json:"statement"`
	Class     int     `json:"class,omitempty"`
	Value     float64 `json:"value,omitempty"`
}

// IngestResponse is the feedback acknowledgment.
type IngestResponse struct {
	OK bool `json:"ok"`
}

// errWarmingUp is healthz's answer before warm boot completes (and
// after Close): 503 with the server's Retry-After pacing.
var errWarmingUp = errors.New("service warming up")

// badRequestError marks a request that cannot succeed as given — a
// malformed body, a missing field, invalid deploy options — so
// retrying it is pointless; StatusFor maps it onto 400.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// decodeError classifies a request-body failure: a body past
// MaxRequestBytes keeps its *http.MaxBytesError (413), anything else
// is a bad request.
func decodeError(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return err
	}
	return badRequestError{err}
}

func decodeBody(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return decodeError(err)
	}
	return nil
}

func serveModels(s *Service, _ []byte, _ url.Values) (any, error) {
	return s.Models(), nil
}

func serveDeploy(s *Service, body []byte, _ url.Values) (any, error) {
	var req DeployRequest
	if err := decodeBody(body, &req); err != nil {
		return nil, err
	}
	if req.Model == "" {
		return nil, badRequestError{errors.New("deploy: model required")}
	}
	info, err := s.Deploy(req.Model, req.Version, req.DeployOptions)
	if err != nil {
		return nil, err
	}
	return info, nil
}

// serveStats takes the model from the ?model= query over HTTP and
// from the JSON body over the wire.
func serveStats(s *Service, body []byte, query url.Values) (any, error) {
	req := StatsRequest{Model: query.Get("model")}
	if len(body) > 0 {
		if err := decodeBody(body, &req); err != nil {
			return nil, err
		}
	}
	if req.Model == "" {
		return nil, badRequestError{errors.New("stats: model required")}
	}
	snap, err := s.StatsSnapshot(req.Model)
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// serveHealthz serves the Health document. Once a warm boot has run,
// its Boot field carries the report — loaded/quarantined/skipped
// counts and the incident log — so an orchestrator can tell a clean
// boot from a degraded one that quarantined artifacts.
func serveHealthz(s *Service, _ []byte, _ url.Values) (any, error) {
	h, ready := s.Health()
	if !ready {
		return h, errWarmingUp
	}
	return h, nil
}

func serveGC(s *Service, _ []byte, _ url.Values) (any, error) {
	results, err := s.GC()
	if err != nil {
		return nil, err
	}
	return GCResponse{Results: results}, nil
}

// serveIngest appends ground-truth feedback for a served statement to
// the node's ingest log (Service.Observe), where the online pipeline's
// trainers pick it up.
func serveIngest(s *Service, body []byte, _ url.Values) (any, error) {
	var req IngestRequest
	if err := decodeBody(body, &req); err != nil {
		return nil, err
	}
	if req.Model == "" || req.Statement == "" {
		return nil, badRequestError{errors.New("ingest: model and statement required")}
	}
	if err := s.Observe(req.Model, req.Statement, req.Class, req.Value); err != nil {
		return nil, err
	}
	return IngestResponse{OK: true}, nil
}
