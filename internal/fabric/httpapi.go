package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Handler returns the coordinator's HTTP API, meant to be mounted under
// /fabric/ by gpufi-serve:
//
//	POST /fabric/v1/register   RegisterRequest  -> RegisterReply
//	POST /fabric/v1/lease      LeaseRequest     -> LeaseReply
//	POST /fabric/v1/heartbeat  HeartbeatRequest -> HeartbeatReply
//	POST /fabric/v1/complete   CompleteRequest  -> CompleteReply
//	GET  /fabric/v1/status                      -> Status
//
// Error mapping: unknown worker -> 404 (the worker re-registers),
// duplicate-result mismatch -> 409, coordinator closed -> 503, a body over
// maxRPCBody -> 413, anything else -> 400. All errors carry a JSON
// {"error": ...} body.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fabric/v1/register", handleRPC(c.Register))
	mux.HandleFunc("POST /fabric/v1/lease", handleRPC(c.Lease))
	mux.HandleFunc("POST /fabric/v1/heartbeat", handleRPC(c.Heartbeat))
	mux.HandleFunc("POST /fabric/v1/complete", handleRPC(c.Complete))
	mux.HandleFunc("GET /fabric/v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeFabricJSON(w, http.StatusOK, c.Status())
	})
	return mux
}

// fabricError is the JSON error envelope of every non-2xx response.
type fabricError struct {
	Error string `json:"error"`
}

func writeFabricJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// maxRPCBody bounds a request body. The largest legitimate one is a
// complete: one unit's canonical payload, base64 in JSON. The densest unit
// of a paper-scale plan (micro/FEXP/L/SFU, 12 000 faults) encodes to
// 115 554 bytes, under 10 a fault, ×4/3 as base64 = 154 KB; 16 MiB carries
// 12 MiB of payload, a unit of over a million faults at that density. (A
// worker fails a unit past the bound instead of sending it: withPayload.)
const maxRPCBody = 16 << 20

// handleRPC adapts one Transport method to an HTTP POST endpoint.
func handleRPC[Req, Reply any](fn func(Req) (Reply, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRPCBody)).Decode(&req); err != nil {
			code := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) {
				code = http.StatusRequestEntityTooLarge
			}
			writeFabricJSON(w, code, fabricError{Error: fmt.Sprintf("bad request body: %v", err)})
			return
		}
		reply, err := fn(req)
		if err != nil {
			code := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrUnknownWorker):
				code = http.StatusNotFound
			case errors.Is(err, ErrResultMismatch):
				code = http.StatusConflict
			case errors.Is(err, ErrClosed):
				code = http.StatusServiceUnavailable
			}
			writeFabricJSON(w, code, fabricError{Error: err.Error()})
			return
		}
		writeFabricJSON(w, http.StatusOK, reply)
	}
}

// HTTPTransport implements Transport against a remote coordinator's
// HTTP API.
type HTTPTransport struct {
	// Base is the coordinator's base URL, e.g. "http://host:8080".
	Base string

	// Client overrides http.DefaultClient (mainly for timeouts).
	Client *http.Client
}

// NewHTTPTransport builds a transport with a sane default client: no
// overall request timeout (lease polls are cheap, completes can carry
// megabytes on slow links) but a bounded dial/response-header wait via
// the default transport.
func NewHTTPTransport(base string) *HTTPTransport {
	return &HTTPTransport{
		Base:   strings.TrimRight(base, "/"),
		Client: &http.Client{Timeout: 5 * time.Minute},
	}
}

func (t *HTTPTransport) post(path string, req, reply any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Post(strings.TrimRight(t.Base, "/")+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var fe fabricError
		blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		_ = json.Unmarshal(blob, &fe)
		switch resp.StatusCode {
		case http.StatusNotFound:
			return fmt.Errorf("%w (%s)", ErrUnknownWorker, strings.TrimSpace(fe.Error))
		case http.StatusConflict:
			return fmt.Errorf("%w (%s)", ErrResultMismatch, strings.TrimSpace(fe.Error))
		case http.StatusServiceUnavailable:
			return fmt.Errorf("%w (%s)", ErrClosed, strings.TrimSpace(fe.Error))
		default:
			return fmt.Errorf("fabric: %s: HTTP %d: %s", path, resp.StatusCode, strings.TrimSpace(fe.Error))
		}
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}

// Register implements Transport.
func (t *HTTPTransport) Register(req RegisterRequest) (RegisterReply, error) {
	var reply RegisterReply
	err := t.post("/fabric/v1/register", req, &reply)
	return reply, err
}

// Lease implements Transport.
func (t *HTTPTransport) Lease(req LeaseRequest) (LeaseReply, error) {
	var reply LeaseReply
	err := t.post("/fabric/v1/lease", req, &reply)
	return reply, err
}

// Heartbeat implements Transport.
func (t *HTTPTransport) Heartbeat(req HeartbeatRequest) (HeartbeatReply, error) {
	var reply HeartbeatReply
	err := t.post("/fabric/v1/heartbeat", req, &reply)
	return reply, err
}

// Complete implements Transport.
func (t *HTTPTransport) Complete(req CompleteRequest) (CompleteReply, error) {
	var reply CompleteReply
	err := t.post("/fabric/v1/complete", req, &reply)
	return reply, err
}
