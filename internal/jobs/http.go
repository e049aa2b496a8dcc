package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"gpufi/internal/fabric"
)

// Handler returns the service's HTTP API:
//
//	POST   /jobs             submit a campaign (Request JSON, at most maxSubmitBody) -> 201 + Status
//	GET    /jobs             index of every job's status, without results
//	GET    /jobs/{id}        one job's status (+ result when done)
//	GET    /jobs/{id}/events stream status snapshots as server-sent events (the last one + result when done)
//	DELETE /jobs/{id}        cancel a queued or running job
//	GET    /healthz          liveness probe
//
// A done job's result is served from its journal record, byte for byte,
// when the service keeps a journal; a record that no longer holds it is a
// 500, never an empty result.
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

var api = fabric.JSONAPI{Indent: " ", Strict: true, Limit: maxSubmitBody}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	closed := s.closed
	s.mu.Unlock()
	if closed {
		api.Write(w, http.StatusServiceUnavailable, errorBody{Error: "shutting down"})
		return
	}
	api.Write(w, http.StatusOK, map[string]any{"ok": true, "jobs": n})
}

// maxSubmitBody bounds a POST /jobs body; a Request is a few hundred bytes.
const maxSubmitBody = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !api.Decode(w, r, &req) {
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errQueueFull) || errors.Is(err, errClosed) {
			code = http.StatusServiceUnavailable
		}
		api.Write(w, code, errorBody{Error: err.Error()})
		return
	}
	api.Write(w, http.StatusCreated, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	api.Write(w, http.StatusOK, map[string]any{"jobs": s.List()})
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		api.Write(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	st, err := s.withResult(j)
	var blob []byte
	if err == nil {
		blob, err = statusJSON(st, api.Indent)
	}
	if err != nil {
		api.Write(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(blob, '\n'))
}

// statusJSON is st marshalled with indent ("" for compact), its result
// spliced in as it is — compact json.Marshal output — instead of being
// re-encoded. Compact, it is json.Marshal(st).
func statusJSON(st Status, indent string) ([]byte, error) {
	result := st.Result
	st.Result = nil
	var appendResult func([]byte) []byte
	if len(result) > 0 {
		appendResult = func(buf []byte) []byte { return append(buf, result...) }
	}
	return marshalWithResult(st, indent, appendResult)
}

// marshalWithResult is head marshalled with indent ("" for compact) and a
// last field "result" whose value, compact JSON, appendResult appends to the
// buffer; a nil appendResult adds no field. It is the one splice rule of a
// status (statusJSON) and a journal record (Service.journal).
func marshalWithResult(head any, indent string, appendResult func([]byte) []byte) ([]byte, error) {
	var buf []byte
	var err error
	nl, colon := "", ":"
	if indent == "" {
		buf, err = json.Marshal(head)
	} else {
		buf, err = json.MarshalIndent(head, "", indent)
		nl, colon = "\n", ": "
	}
	if err != nil || appendResult == nil {
		return buf, err
	}
	buf = bytes.TrimSuffix(buf[:len(buf)-1], []byte(nl))
	return append(appendResult(append(buf, ","+nl+indent+`"result"`+colon...)), nl+"}"...), nil
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		if st.ID == "" {
			api.Write(w, http.StatusNotFound, errorBody{Error: err.Error()})
			return
		}
		api.Write(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	api.Write(w, http.StatusOK, st)
}

// handleEvents streams status snapshots as server-sent events. Progress
// and state changes are sampled every Service.eventsPoll; the terminal
// state is not — Service.finish wakes the stream, so the final event goes
// out as soon as the state is visible — and the stream ends after it. A
// done job's final event carries its result, as GET /jobs/{id} does; when
// the job's record no longer holds it, the stream ends without that event.
// Idle streams carry periodic SSE comments (": keep-alive") every
// Config.SSEKeepAlive so proxies and load balancers with read timeouts
// keep them open.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		api.Write(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		api.Write(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	last, err := s.withResult(j)
	if err != nil {
		api.Write(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(st Status) {
		blob, err := statusJSON(st, "")
		if err != nil {
			return
		}
		fmt.Fprintf(w, "data: %s\n\n", blob)
		flusher.Flush()
	}
	emit(last)
	ticker := time.NewTicker(s.eventsPoll)
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
		st, err := s.withResult(j)
		if err != nil {
			s.cfg.Logf("jobs: events of %s: %v", j.id, err)
			return
		}
		if st.State != last.State || st.Done != last.Done || st.UnitsDone != last.UnitsDone {
			emit(st)
			last = st
		}
	}
}
