package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gpufi/internal/syndrome"
)

func newHTTPService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s := newService(t, cfg)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func postJob(t *testing.T, base string, req Request) Status {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /jobs = %d, want 201", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJob(t *testing.T, base, id string) Status {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s = %d, want 200", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHTTPEndToEnd is the acceptance test: a campaign job submitted over
// HTTP reports monotonically increasing progress and finishes with its
// deterministic result.
func TestHTTPEndToEnd(t *testing.T) {
	_, srv := newHTTPService(t, Config{Workers: 2})

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
	}

	st := postJob(t, srv.URL, smallHPC())
	var progress []int64
	deadline := time.Now().Add(60 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s at %d/%d", st.State, st.Done, st.Total)
		}
		st = getJob(t, srv.URL, st.ID)
		progress = append(progress, st.Done)
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("job ended %s (error %q)", st.State, st.Error)
	}
	for i := 1; i < len(progress); i++ {
		if progress[i] < progress[i-1] {
			t.Fatalf("progress regressed over HTTP: %d then %d (sample %d)", progress[i-1], progress[i], i)
		}
	}
	if st.Done != st.Total || st.Total == 0 {
		t.Errorf("final progress %d/%d, want full", st.Done, st.Total)
	}
	if len(st.Result) == 0 || !json.Valid(st.Result) {
		t.Error("finished job exposes no valid result over HTTP")
	}

	// The job list includes it.
	resp, err = http.Get(srv.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Errorf("GET /jobs = %+v, %v; want the one finished job", list, err)
	}
}

// TestHTTPEvents streams the SSE endpoint and checks every event carries
// monotonically non-decreasing progress, ending in a terminal state.
func TestHTTPEvents(t *testing.T) {
	_, srv := newHTTPService(t, Config{Workers: 1})
	st := postJob(t, srv.URL, smallHPC())

	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	var (
		events []Status
		sc     = bufio.NewScanner(resp.Body)
	)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Status
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, ev)
		if ev.State.Terminal() {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Fatalf("stream ended in %s (error %q)", last.State, last.Error)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Done < events[i-1].Done {
			t.Fatalf("SSE progress regressed: %d then %d", events[i-1].Done, events[i].Done)
		}
	}
}

// TestHTTPEventsKeepAlive checks that an idle SSE stream carries periodic
// comment lines, so proxies and load balancers with read timeouts do not
// sever long-lived streams between progress events.
func TestHTTPEventsKeepAlive(t *testing.T) {
	_, srv := newHTTPService(t, Config{Workers: 1, SSEKeepAlive: 20 * time.Millisecond})
	slow := smallHPC()
	slow.Injections = 100000
	postJob(t, srv.URL, slow) // occupies the only job slot...
	st := postJob(t, srv.URL, smallHPC())
	// ...so this job stays queued and its event stream is idle.

	resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events = %d, want 200", resp.StatusCode)
	}
	var dataLines, keepAlives int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			dataLines++
		case strings.HasPrefix(line, ":"):
			keepAlives++
		}
		if keepAlives >= 3 {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if dataLines < 1 {
		t.Errorf("idle stream sent %d data events, want the initial snapshot", dataLines)
	}
	if keepAlives < 3 {
		t.Fatalf("idle stream sent %d keep-alive comments, want at least 3", keepAlives)
	}
}

// TestHTTPCancelMidRun is the acceptance test's cancellation half: DELETE
// on a running job cancels it without corrupting its checkpoint.
func TestHTTPCancelMidRun(t *testing.T) {
	dir := t.TempDir()
	_, srv := newHTTPService(t, Config{Workers: 1, Dir: dir, CheckpointEvery: 5 * time.Millisecond})
	req := smallHPC()
	req.Injections = 100000
	st := postJob(t, srv.URL, req)
	waitFor(t, 60*time.Second, "progress over HTTP", func() bool {
		st = getJob(t, srv.URL, st.ID)
		return st.State == StateRunning && st.Done > 0
	})

	del, err := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE running job = %d, want 200", resp.StatusCode)
	}
	waitFor(t, 60*time.Second, "cancelled over HTTP", func() bool {
		st = getJob(t, srv.URL, st.ID)
		return st.State.Terminal()
	})
	if st.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", st.State)
	}

	blob, err := os.ReadFile(filepath.Join(dir, "job-000001.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ck checkpoint
	if err := json.Unmarshal(blob, &ck); err != nil {
		t.Fatalf("checkpoint corrupt after mid-run cancel: %v", err)
	}
	if ck.State != StateCancelled {
		t.Errorf("checkpoint state %s, want cancelled", ck.State)
	}

	// A second DELETE conflicts: the job is already terminal.
	resp, err = http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE terminal job = %d, want 409", resp.StatusCode)
	}
}

// TestHTTPResumeBitIdentical is the acceptance test's resume half: a job
// interrupted by a service restart finishes with a result bit-identical
// to an uninterrupted run, observed entirely over HTTP.
func TestHTTPResumeBitIdentical(t *testing.T) {
	req := multiUnitHPC()

	// Uninterrupted reference run.
	_, ref := newHTTPService(t, Config{Workers: 1})
	st := postJob(t, ref.URL, req)
	waitFor(t, 120*time.Second, "reference job", func() bool {
		st = getJob(t, ref.URL, st.ID)
		return st.State.Terminal()
	})
	if st.State != StateDone {
		t.Fatalf("reference job ended %s (error %q)", st.State, st.Error)
	}
	want := st.Result

	// Interrupted run: kill the service after the first unit checkpoints.
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, Dir: dir, CheckpointEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	st2 := postJob(t, srv.URL, req)
	waitFor(t, 120*time.Second, "first unit checkpoint", func() bool {
		st2 = getJob(t, srv.URL, st2.ID)
		return st2.UnitsDone >= 1
	})
	srv.Close()
	s.Close()

	// Restart on the same journal; the job resumes and finishes.
	_, srv2 := newHTTPService(t, Config{Workers: 1, Dir: dir})
	waitFor(t, 120*time.Second, "resumed job", func() bool {
		st2 = getJob(t, srv2.URL, st2.ID)
		return st2.State.Terminal()
	})
	if st2.State != StateDone {
		t.Fatalf("resumed job ended %s (error %q)", st2.State, st2.Error)
	}
	if !bytes.Equal(want, st2.Result) {
		t.Fatalf("resumed result differs from uninterrupted run:\nuninterrupted: %s\nresumed:       %s", want, st2.Result)
	}
}

// assertFieldInert submits req twice over HTTP, with set(false) and
// set(true) applied, and requires byte-identical results and — for
// software jobs — identical engine counters in the status.
func assertFieldInert(t *testing.T, base, field string, req Request, set func(*Request, bool)) {
	t.Helper()
	var final [2]Status
	for i, on := range []bool{false, true} {
		set(&req, on)
		st := postJob(t, base, req)
		waitFor(t, 120*time.Second, "job", func() bool {
			st = getJob(t, base, st.ID)
			return st.State.Terminal()
		})
		if st.State != StateDone {
			t.Fatalf("%s job (%s=%v) ended %s (error %q)", req.Kind, field, on, st.State, st.Error)
		}
		final[i] = st
	}
	if !bytes.Equal(final[0].Result, final[1].Result) {
		t.Errorf("%s: %s changed the result:\nwithout: %s\nwith:    %s", req.Kind, field, final[0].Result, final[1].Result)
	}
	if sw := final[0].SW; sw != nil && sw.Counters != final[1].SW.Counters {
		t.Errorf("%s: %s changed the engine counters: %+v without, %+v with", req.Kind, field, sw.Counters, final[1].SW.Counters)
	}
}

// TestHTTPNoCollapseIsInert: the deprecated no_collapse request field
// still passes the submit decoder's unknown-field check and changes
// nothing — the result (tallies, engine counters, syndrome DB) is
// byte-identical to the same request without it, at both levels.
func TestHTTPNoCollapseIsInert(t *testing.T) {
	_, srv := newHTTPService(t, Config{Workers: 1})
	for _, req := range []Request{
		smallHPC(),
		{Kind: KindCharacterize, Seed: 5, Ops: []string{"FADD"}, Ranges: []string{"M"}, Faults: 300, SkipTMXM: true},
	} {
		assertFieldInert(t, srv.URL, "no_collapse", req, func(r *Request, on bool) { r.NoCollapse = on })
	}
}

// TestHTTPNoPruneIsInertForSoftwareJobs: no_prune keeps its meaning for
// characterize jobs only; HPC and CNN jobs accept it and ignore it, engine
// counters included.
func TestHTTPNoPruneIsInertForSoftwareJobs(t *testing.T) {
	_, srv := newHTTPService(t, Config{Workers: 1})
	for _, req := range []Request{
		smallHPC(),
		{Kind: KindCNN, Seed: 13, Models: []string{"bitflip"}, Injections: 30},
	} {
		assertFieldInert(t, srv.URL, "no_prune", req, func(r *Request, on bool) { r.NoPrune = on })
	}
}

func TestHTTPErrors(t *testing.T) {
	s, srv := newHTTPService(t, Config{Workers: 1})
	check := func(method, path, body string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s %s = %d, want %d", method, path, resp.StatusCode, want)
			return
		}
		if want >= 400 {
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
				t.Errorf("%s %s: error body missing (%v)", method, path, err)
			}
		}
	}
	check(http.MethodGet, "/jobs/j-999999", "", http.StatusNotFound)
	check(http.MethodDelete, "/jobs/j-999999", "", http.StatusNotFound)
	check(http.MethodGet, "/jobs/j-999999/events", "", http.StatusNotFound)
	check(http.MethodPost, "/jobs", "{not json", http.StatusBadRequest)
	check(http.MethodPost, "/jobs", `{"kind":"hpc","bogus_field":1}`, http.StatusBadRequest)
	check(http.MethodPost, "/jobs", `{"kind":"warp-drive"}`, http.StatusBadRequest)
	// A negative count used to be accepted and then crash the process from
	// a pool goroutine (make with a negative length).
	check(http.MethodPost, "/jobs", `{"kind":"characterize","faults":-5}`, http.StatusBadRequest)
	check(http.MethodPost, "/jobs", `{"kind":"characterize","tmxm_faults":-5}`, http.StatusBadRequest)
	check(http.MethodPost, "/jobs", `{"kind":"hpc","models":["bitflip"],"injections":-5}`, http.StatusBadRequest)
	check(http.MethodPost, "/jobs", `{"kind":"cnn","models":["bitflip"],"injections":-5}`, http.StatusBadRequest)
	check(http.MethodPost, "/jobs", `{"kind":"hpc"`+strings.Repeat(" ", maxSubmitBody)+`}`, http.StatusRequestEntityTooLarge)
	check(http.MethodGet, "/jobs", "", http.StatusOK) // nothing registered, still serving
	if st := s.List(); len(st) != 0 {
		t.Errorf("rejected submissions registered %d jobs", len(st))
	}
}

func TestHTTPHealthzAfterClose(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	s.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz after Close = %d, want 503", resp.StatusCode)
	}
	if _, err := s.Submit(smallHPC()); err == nil {
		t.Fatal("Submit after Close must fail")
	}
}

// TestHTTPEventsTerminalEventIsNotPolled: the stream used to learn of a
// finished job at its next 100 ms status sample, so the last event trailed
// the job by up to a tick. finish now wakes the stream; the event must
// follow the terminal journal write — finish's first step — within a
// fraction of the poll interval, every time.
func TestHTTPEventsTerminalEventIsNotPolled(t *testing.T) {
	s, srv := newHTTPService(t, Config{Workers: 1, Dir: t.TempDir()})
	var (
		mu         sync.Mutex
		journalled = map[string]time.Time{}
	)
	s.writeFile = func(path string, data []byte, perm os.FileMode) error {
		err := syndrome.WriteFileAtomic(path, data, perm)
		var ck checkpoint
		if json.Unmarshal(data, &ck) == nil && ck.State.Terminal() {
			mu.Lock()
			journalled[ck.ID] = time.Now()
			mu.Unlock()
		}
		return err
	}
	for i := 0; i < 6; i++ {
		req := smallHPC()
		req.Injections = 60 + 17*i // spread the finishing times over the poll phase
		st := postJob(t, srv.URL, req)
		resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		var (
			events  int
			arrived time.Time
			sc      = bufio.NewScanner(resp.Body)
		)
		for sc.Scan() {
			line, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev Status
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			events++
			if ev.State.Terminal() {
				arrived = time.Now()
				break
			}
		}
		resp.Body.Close()
		if arrived.IsZero() {
			t.Fatalf("job %s: stream ended without a terminal event (%v)", st.ID, sc.Err())
		}
		if events < 2 {
			t.Fatalf("job %s had finished before its stream opened; the test needs a longer job", st.ID)
		}
		mu.Lock()
		wrote := journalled[st.ID]
		mu.Unlock()
		if lag := arrived.Sub(wrote); wrote.IsZero() || lag > 25*time.Millisecond {
			t.Errorf("job %s: terminal event %v after the terminal journal write, want under 25ms", st.ID, lag)
		}
	}
}

// TestHTTPPanickingUnitFailsTheJobOnly: a panic inside one unit — an engine
// bug — is that job's failure, journalled with the unit's name and the
// stack, and not the end of the process: the pool worker that ran it takes
// the next job, and the API keeps answering.
func TestHTTPPanickingUnitFailsTheJobOnly(t *testing.T) {
	dir := t.TempDir()
	s, srv := newHTTPService(t, Config{Workers: 1, Dir: dir})
	wrapUnits(s, func(u unit) runFunc {
		if u.name != "MxM/bitflip2" {
			return u.run
		}
		return func(context.Context, *syndrome.DB, int, func(done, total int)) (outcome, error) {
			panic("index out of range in the engine")
		}
	})
	bad := postJob(t, srv.URL, smallHPC())
	waitFor(t, 30*time.Second, "failed job", func() bool {
		bad = getJob(t, srv.URL, bad.ID)
		return bad.State.Terminal()
	})
	if bad.State != StateFailed || bad.UnitsDone != 1 {
		t.Fatalf("job ended %s with %d units done, want failed after its first unit", bad.State, bad.UnitsDone)
	}
	for _, want := range []string{"unit MxM/bitflip2: panic: index out of range in the engine", "http_test.go"} {
		if !strings.Contains(bad.Error, want) {
			t.Errorf("job error lacks %q:\n%s", want, bad.Error)
		}
	}
	blob, err := os.ReadFile(filepath.Join(dir, "job-"+bad.ID[2:]+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var ck checkpoint
	if err := json.Unmarshal(blob, &ck); err != nil || ck.State != StateFailed || ck.Error != bad.Error {
		t.Errorf("journal records %s / %q (err %v), want the failure the status shows", ck.State, ck.Error, err)
	}

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz after the panic = %d, want 200", resp.StatusCode)
	}
	req := smallHPC()
	req.Models = []string{"bitflip"}
	good := postJob(t, srv.URL, req)
	waitFor(t, 30*time.Second, "next job", func() bool {
		good = getJob(t, srv.URL, good.ID)
		return good.State.Terminal()
	})
	if good.State != StateDone {
		t.Errorf("the job after the panic ended %s (error %q), want done", good.State, good.Error)
	}
}
