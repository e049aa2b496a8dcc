package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/faults"
)

// TestIdleWorkerSurvivesSweeper: a worker with nothing to do must keep
// heartbeating so the coordinator's silence sweeper never garbage-collects
// it. The worker polls for leases only every 2s here — far beyond the 4×
// lease-timeout silence horizon (160ms) — so the empty heartbeat is the
// only thing keeping it registered. A regression to the old behaviour
// (skip Heartbeat when no units are in flight) makes the worker vanish
// from Status and flap through re-registration.
func TestIdleWorkerSurvivesSweeper(t *testing.T) {
	c := fastCoordinator(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = RunWorker(ctx, c, WorkerConfig{
			Name: "idle",
			Poll: 2 * time.Second,
			Logf: t.Logf,
		})
	}()
	defer func() { cancel(); <-done }()

	// Wait for registration, remember the identity.
	var id string
	waitCond(t, 2*time.Second, "worker registration", func() bool {
		st := c.Status()
		if len(st.Workers) != 1 {
			return false
		}
		id = st.Workers[0].ID
		return true
	})

	// Sit well past the sweeper's silence horizon (4 × 40ms lease timeout)
	// with no work registered. The idle worker must stay present, live,
	// and keep its original identity the whole time.
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		st := c.Status()
		if len(st.Workers) != 1 {
			t.Fatalf("idle worker was swept: %d workers registered", len(st.Workers))
		}
		if st.Workers[0].ID != id {
			t.Fatalf("idle worker flapped: identity changed %s -> %s", id, st.Workers[0].ID)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := c.Status(); !st.Workers[0].Live {
		t.Fatal("idle worker is not live after sitting past the silence horizon")
	}
}

// TestWorkerContainsEnginePanics: a panic inside a unit's engine run is
// reported to the coordinator as that unit's error — stack attached,
// counted against MaxRetries — and the worker goes on to complete the
// job's other unit.
func TestWorkerContainsEnginePanics(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{LeaseTimeout: time.Minute, MaxRetries: 2, Logf: t.Logf})
	t.Cleanup(c.Close)
	bad, good := microUnit(1), microUnit(2)
	good.Module = faults.ModSched // a second name
	h, err := c.StartJob("j-1", []core.Unit{bad, good}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var attempts atomic.Int64
	go func() {
		defer close(done)
		_ = RunWorker(ctx, c, WorkerConfig{Poll: time.Millisecond, Logf: t.Logf,
			run: func(ctx context.Context, u core.Unit, workers int, progress func(done, total int)) (*core.UnitResult, error) {
				if u.Name() == bad.Name() {
					attempts.Add(1)
					panic("nil machine in the engine")
				}
				return core.RunUnit(ctx, u, workers, progress)
			}})
	}()
	defer func() { cancel(); <-done }()

	_, err = h.Await(context.Background(), bad.Name())
	if err == nil || !strings.Contains(err.Error(), "after 2 attempts: panic: nil machine in the engine") ||
		!strings.Contains(err.Error(), "worker_test.go") {
		t.Fatalf("await of the panicking unit: %v", err)
	}
	if n := attempts.Load(); n != 2 {
		t.Errorf("panicking unit ran %d times, want MaxRetries = 2", n)
	}
	if res, err := h.Await(context.Background(), good.Name()); err != nil || res.Micro == nil {
		t.Fatalf("the worker did not survive to run the other unit: %v", err)
	}
}

// TestOversizedPayloadIsAnError: a complete request whose JSON would pass
// the body bound carries an error naming the payload size instead of the
// payload, so MaxRetries ends the unit; the bound is exact to the byte.
func TestOversizedPayloadIsAnError(t *testing.T) {
	req := CompleteRequest{WorkerID: "w-000003", Lease: "l-000017", Job: "j-000001", Unit: "micro/FADD/M/FP32"}
	payload := bytes.Repeat([]byte{0xAB, 0x01, 0x7F, 0x22}, 750)
	full := req
	full.Payload = payload
	body, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if got := withPayload(req, payload, len(body)); !bytes.Equal(got.Payload, payload) || got.Error != "" {
		t.Fatalf("a request of exactly the bound lost its payload: %q", got.Error)
	}
	got := withPayload(req, payload, len(body)-1)
	if got.Payload != nil || !strings.Contains(got.Error, "payload 3000 bytes exceeds limit") {
		t.Fatalf("one byte over the bound: payload %d bytes, error %q", len(got.Payload), got.Error)
	}
	failed := req
	failed.Error = "engine failed"
	if got := withPayload(failed, nil, 1); got.Error != "engine failed" {
		t.Fatalf("an error result became %q", got.Error)
	}
}
