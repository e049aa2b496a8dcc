package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Handler returns the service's HTTP API:
//
//	POST   /jobs             submit a campaign (Request JSON, at most maxSubmitBody) -> 201 + Status
//	GET    /jobs             list all jobs
//	GET    /jobs/{id}        one job's status (+ result when done)
//	GET    /jobs/{id}/events stream status snapshots as server-sent events
//	DELETE /jobs/{id}        cancel a queued or running job
//	GET    /healthz          liveness probe
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	return mux
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	closed := s.closed
	s.mu.Unlock()
	if closed {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "shutting down"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "jobs": n})
}

// maxSubmitBody bounds a POST /jobs body; a Request is a few hundred bytes.
const maxSubmitBody = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errQueueFull) || errors.Is(err, errClosed) {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.List()})
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		if st.ID == "" {
			writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// eventsPollInterval is how often the SSE stream re-samples the status of
// a job that is still going; it bounds the rate of progress events.
const eventsPollInterval = 100 * time.Millisecond

// handleEvents streams status snapshots as server-sent events. Progress
// and state changes are sampled every eventsPollInterval; the terminal
// state is not — Service.finish wakes the stream, so the final event goes
// out as soon as the state is visible — and the stream ends after it.
// Idle streams carry periodic SSE comments (": keep-alive") every
// Config.SSEKeepAlive so proxies and load balancers with read timeouts
// keep them open.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(st Status) {
		blob, err := json.Marshal(st)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", blob)
		flusher.Flush()
	}
	last := s.statusOf(j)
	emit(last)
	ticker := time.NewTicker(eventsPollInterval)
	defer ticker.Stop()
	keepAlive := time.NewTicker(s.cfg.SSEKeepAlive)
	defer keepAlive.Stop()
	for !last.State.Terminal() {
		select {
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		case <-keepAlive.C:
			fmt.Fprint(w, ": keep-alive\n\n")
			flusher.Flush()
			continue
		case <-ticker.C:
		case <-j.terminal:
		}
		st := s.statusOf(j)
		if st.State != last.State || st.Done != last.Done || st.UnitsDone != last.UnitsDone {
			emit(st)
			last = st
		}
	}
}
