package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpufi/internal/core"
)

// fastCoordinator uses a lease discipline short enough to observe expiry
// and re-leasing within a test.
func fastCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	c := NewCoordinator(CoordinatorConfig{
		LeaseTimeout: 40 * time.Millisecond,
		SweepEvery:   5 * time.Millisecond,
		Logf:         t.Logf,
	})
	t.Cleanup(c.Close)
	return c
}

func register(t *testing.T, tr Transport, name string) string {
	t.Helper()
	reply, err := tr.Register(RegisterRequest{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return reply.WorkerID
}

func leaseOne(t *testing.T, tr Transport, worker string) Task {
	t.Helper()
	reply, err := tr.Lease(LeaseRequest{WorkerID: worker, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Tasks) != 1 {
		t.Fatalf("leased %d tasks, want 1", len(reply.Tasks))
	}
	return reply.Tasks[0]
}

func waitCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestLeaseExpiryReLeasesWithoutLeaks: a worker that leases a unit and
// goes silent loses it to the sweeper; the unit returns to the pending
// pool, the dead worker's lease accounting is cleared (no leaked lease
// blocking its window), and another worker can finish the job.
func TestLeaseExpiryReLeasesWithoutLeaks(t *testing.T) {
	c := fastCoordinator(t)
	u := microUnit(3)
	h, err := c.StartJob("j-1", []core.Unit{u}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	dead := register(t, c, "dead")
	task := leaseOne(t, c, dead)
	if task.Unit != u {
		t.Fatalf("leased unit %+v, want %+v", task.Unit, u)
	}

	// The dead worker never heartbeats; the sweeper must reclaim the unit.
	waitCond(t, 2*time.Second, "lease expiry", func() bool {
		js, ok := c.JobStatus("j-1")
		return ok && js.UnitsPending == 1 && js.ReLeased >= 1
	})
	st := c.Status()
	for _, w := range st.Workers {
		if w.ID == dead && w.Leased != 0 {
			t.Fatalf("expired lease leaked: dead worker still accounts %d leases", w.Leased)
		}
	}

	// A live worker picks the unit up and completes it.
	live := register(t, c, "live")
	task2 := leaseOne(t, c, live)
	if task2.Lease == task.Lease {
		t.Fatal("re-lease reused the expired lease ID")
	}
	payload, err := EncodeUnitResult(runUnit(t, task2.Unit, 1))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := c.Complete(CompleteRequest{WorkerID: live, Lease: task2.Lease, Job: task2.Job, Unit: task2.Unit.Name(), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != CompleteAccepted {
		t.Fatalf("completion status %q, want accepted", reply.Status)
	}
	res, err := h.Await(context.Background(), u.Name())
	if err != nil {
		t.Fatal(err)
	}
	if res.Micro == nil || res.Unit != u {
		t.Fatalf("await returned %+v", res)
	}
}

// TestDoubleCompletionDedup: when a slow worker delivers a result for a
// unit that was re-leased and already completed elsewhere, the duplicate
// is byte-compared and deduped; a differing duplicate is a determinism
// violation and is rejected.
func TestDoubleCompletionDedup(t *testing.T) {
	c := fastCoordinator(t)
	u := microUnit(5)
	h, err := c.StartJob("j-1", []core.Unit{u}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	slow := register(t, c, "slow")
	taskSlow := leaseOne(t, c, slow)
	waitCond(t, 2*time.Second, "re-lease after expiry", func() bool {
		js, ok := c.JobStatus("j-1")
		return ok && js.UnitsPending == 1
	})
	fast := register(t, c, "fast")
	taskFast := leaseOne(t, c, fast)

	payload, err := EncodeUnitResult(runUnit(t, u, 1))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := c.Complete(CompleteRequest{WorkerID: fast, Lease: taskFast.Lease, Job: "j-1", Unit: u.Name(), Payload: payload})
	if err != nil || reply.Status != CompleteAccepted {
		t.Fatalf("first completion: %v %q", err, reply.Status)
	}

	// The slow worker turns up late with the identical payload: deduped.
	reply, err = c.Complete(CompleteRequest{WorkerID: slow, Lease: taskSlow.Lease, Job: "j-1", Unit: u.Name(), Payload: bytes.Clone(payload)})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status != CompleteDeduped {
		t.Fatalf("duplicate completion status %q, want deduped", reply.Status)
	}
	js, _ := c.JobStatus("j-1")
	if js.Deduped != 1 || js.UnitsDone != 1 {
		t.Fatalf("job status after dedup: %+v", js)
	}

	// A differing duplicate must be rejected loudly, not merged.
	bad := bytes.Clone(payload)
	bad[len(bad)-1] ^= 0xFF
	_, err = c.Complete(CompleteRequest{WorkerID: slow, Lease: taskSlow.Lease, Job: "j-1", Unit: u.Name(), Payload: bad})
	if !errors.Is(err, ErrResultMismatch) {
		t.Fatalf("mismatching duplicate: err = %v, want ErrResultMismatch", err)
	}
}

// TestWorkerErrorRetriesThenFails: engine errors re-lease the unit up to
// MaxRetries, then fail it terminally; Await surfaces the failure.
func TestWorkerErrorRetriesThenFails(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{
		LeaseTimeout: time.Minute, // no expiry interference
		MaxRetries:   2,
		Logf:         t.Logf,
	})
	t.Cleanup(c.Close)
	u := microUnit(1)
	h, err := c.StartJob("j-1", []core.Unit{u}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	w := register(t, c, "w")

	task := leaseOne(t, c, w)
	reply, err := c.Complete(CompleteRequest{WorkerID: w, Lease: task.Lease, Job: "j-1", Unit: u.Name(), Error: "engine exploded"})
	if err != nil || reply.Status != CompleteAccepted {
		t.Fatalf("first error report: %v %q", err, reply.Status)
	}
	// The unit is pending again and can be re-leased immediately.
	task = leaseOne(t, c, w)
	reply, err = c.Complete(CompleteRequest{WorkerID: w, Lease: task.Lease, Job: "j-1", Unit: u.Name(), Error: "engine exploded again"})
	if err != nil || reply.Status != CompleteAccepted {
		t.Fatalf("second error report: %v %q", err, reply.Status)
	}
	_, err = h.Await(context.Background(), u.Name())
	if err == nil || !strings.Contains(err.Error(), "engine exploded again") {
		t.Fatalf("await after terminal failure: %v", err)
	}
}

// TestHeartbeatExtendsLeaseAndAbortsStale: heartbeats keep a lease alive
// past its timeout and tell the worker to abandon units it no longer holds.
func TestHeartbeatExtendsLeaseAndAbortsStale(t *testing.T) {
	c := fastCoordinator(t)
	u := microUnit(2)
	h, err := c.StartJob("j-1", []core.Unit{u}, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	w := register(t, c, "w")
	task := leaseOne(t, c, w)

	// Heartbeat for 4 lease timeouts; the unit must stay leased to us.
	for i := 0; i < 16; i++ {
		reply, err := c.Heartbeat(HeartbeatRequest{WorkerID: w, Beats: []Beat{{Job: "j-1", Unit: u.Name(), Done: i}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(reply.Abort) != 0 {
			t.Fatalf("live lease aborted: %+v", reply.Abort)
		}
		time.Sleep(10 * time.Millisecond)
	}
	js, _ := c.JobStatus("j-1")
	if js.UnitsLeased != 1 || js.ReLeased != 0 {
		t.Fatalf("heartbeated lease expired anyway: %+v", js)
	}
	if len(js.Leases) != 1 || js.Leases[0].Done == 0 {
		t.Fatalf("heartbeat progress not visible in status: %+v", js.Leases)
	}

	// A beat for a unit we do not hold (other worker's lease, vanished
	// job) is answered with an abort directive.
	reply, err := c.Heartbeat(HeartbeatRequest{WorkerID: w, Beats: []Beat{{Job: "nope", Unit: "micro/x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Abort) != 1 || reply.Abort[0].Job != "nope" {
		t.Fatalf("stale beat not aborted: %+v", reply.Abort)
	}
	_ = task
}

// TestHTTPTransportErrorMapping: sentinel errors survive the HTTP
// round-trip so workers can react to them (re-register on unknown worker).
func TestHTTPTransportErrorMapping(t *testing.T) {
	c := fastCoordinator(t)
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	tr := NewHTTPTransport(srv.URL)

	if _, err := tr.Lease(LeaseRequest{WorkerID: "w-bogus", Max: 1}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("lease with bogus worker over HTTP: %v, want ErrUnknownWorker", err)
	}
	id := register(t, tr, "remote")
	if id == "" {
		t.Fatal("empty worker ID over HTTP")
	}
	reply, err := tr.Lease(LeaseRequest{WorkerID: id, Max: 1})
	if err != nil || len(reply.Tasks) != 0 {
		t.Fatalf("lease with no jobs: %v %+v", err, reply)
	}
	if _, err := tr.Heartbeat(HeartbeatRequest{WorkerID: id}); err != nil {
		t.Fatalf("heartbeat over HTTP: %v", err)
	}
	// One byte over the body bound: refused with 413 instead of buffered.
	body := `{"worker_id":"` + strings.Repeat("w", maxRPCBody) + `"}`
	resp, err := http.Post(srv.URL+"/fabric/v1/heartbeat", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fe fabricError
	if err := json.NewDecoder(resp.Body).Decode(&fe); resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || fe.Error == "" {
		t.Fatalf("oversized body: HTTP %d, error body %q (%v); want 413", resp.StatusCode, fe.Error, err)
	}
	if register(t, tr, "after") == "" {
		t.Fatal("coordinator stopped answering after the oversized body")
	}
}
