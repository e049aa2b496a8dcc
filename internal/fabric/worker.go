package fabric

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"gpufi/internal/campaign"
	"gpufi/internal/core"
)

// WorkerConfig tunes a worker loop. The zero value is usable.
type WorkerConfig struct {
	// Name labels the worker in coordinator status displays.
	Name string

	// EngineWorkers is the per-unit campaign engine parallelism handed to
	// core.RunUnit; default 1. Results are bit-identical for any value.
	EngineWorkers int

	// Parallel is how many units the worker executes at once; default 1.
	Parallel int

	// Poll is the idle backoff between lease requests when the
	// coordinator has no work (or is unreachable); default 500ms.
	Poll time.Duration

	// Logf, when non-nil, receives worker diagnostics.
	Logf func(format string, args ...any)

	// run overrides core.RunUnit in tests.
	run func(ctx context.Context, u core.Unit, workers int, progress func(done, total int)) (*core.UnitResult, error)
}

func (c *WorkerConfig) defaults() {
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = 1
	}
	if c.Parallel <= 0 {
		c.Parallel = 1
	}
	if c.Poll <= 0 {
		c.Poll = 500 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.run == nil {
		c.run = core.RunUnit
	}
}

// inflight is one unit being executed by the worker.
type inflight struct {
	done   campaign.Meter // faults completed, fed by the engine progress callback
	cancel context.CancelFunc
}

// RunWorker registers with the coordinator behind tr, then leases,
// executes and completes units until ctx ends. It survives coordinator
// restarts: any call failing with ErrUnknownWorker triggers a fresh
// registration, and results whose unit was re-leased or whose job
// vanished are simply dropped (the deterministic seeds make re-execution
// produce identical results, so dropped work is waste, never corruption).
// RunWorker only returns ctx.Err() — transport failures are retried
// forever, because a worker outliving a coordinator restart is the whole
// point.
func RunWorker(ctx context.Context, tr Transport, cfg WorkerConfig) error {
	cfg.defaults()
	w := &worker{tr: tr, cfg: cfg, inflight: make(map[UnitKey]*inflight)}
	if err := w.register(ctx); err != nil {
		return err
	}

	hbCtx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeatLoop(hbCtx)
	}()
	defer func() {
		stopHB()
		hbWG.Wait()
	}()

	slots := make(chan struct{}, cfg.Parallel)
	for i := 0; i < cfg.Parallel; i++ {
		slots <- struct{}{}
	}
	var unitWG sync.WaitGroup
	defer unitWG.Wait()

	for {
		if err := sleepCtx(ctx, 0); err != nil {
			return err
		}
		// Wait for at least one free slot before asking for work.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-slots:
		}
		free := 1
	drain:
		for {
			select {
			case <-slots:
				free++
			default:
				break drain
			}
		}

		reply, err := call(ctx, w, func(id string) (LeaseReply, error) {
			return tr.Lease(LeaseRequest{WorkerID: id, Max: free})
		})
		if err != nil && ctx.Err() != nil {
			for i := 0; i < free; i++ {
				slots <- struct{}{}
			}
			return ctx.Err()
		}
		if err != nil {
			cfg.Logf("fabric worker: lease: %v", err)
		}
		granted := len(reply.Tasks)
		for _, task := range reply.Tasks {
			task := task
			unitWG.Add(1)
			go func() {
				defer unitWG.Done()
				defer func() { slots <- struct{}{} }()
				w.runTask(ctx, task)
			}()
		}
		// Return the slots we drained but did not fill.
		for i := granted; i < free; i++ {
			slots <- struct{}{}
		}
		if granted == 0 {
			if err := sleepCtx(ctx, cfg.Poll); err != nil {
				return err
			}
		}
	}
}

// worker is the shared state of one RunWorker invocation.
type worker struct {
	tr  Transport
	cfg WorkerConfig

	mu       sync.Mutex
	id       string
	hbEvery  time.Duration
	inflight map[UnitKey]*inflight
}

// register obtains a (new) worker identity, retrying until ctx ends.
func (w *worker) register(ctx context.Context) error {
	for {
		reply, err := w.tr.Register(RegisterRequest{Name: w.cfg.Name})
		if err == nil {
			// Heartbeat at a third of the coordinator's lease timeout,
			// bounded to something sane.
			every := time.Duration(reply.LeaseTimeoutMS) * time.Millisecond / 3
			if every < 10*time.Millisecond {
				every = 10 * time.Millisecond
			}
			if every > 5*time.Second {
				every = 5 * time.Second
			}
			w.mu.Lock()
			w.id = reply.WorkerID
			w.hbEvery = every
			w.mu.Unlock()
			w.cfg.Logf("fabric worker: registered as %s (lease timeout %dms)", reply.WorkerID, reply.LeaseTimeoutMS)
			return nil
		}
		w.cfg.Logf("fabric worker: register: %v (retrying)", err)
		if err := sleepCtx(ctx, w.cfg.Poll); err != nil {
			return err
		}
	}
}

// call runs fn with the current worker ID, re-registering once when the
// coordinator no longer knows it (restart or garbage collection).
func call[T any](ctx context.Context, w *worker, fn func(id string) (T, error)) (T, error) {
	w.mu.Lock()
	id := w.id
	w.mu.Unlock()
	out, err := fn(id)
	if !errors.Is(err, ErrUnknownWorker) {
		return out, err
	}
	w.cfg.Logf("fabric worker: coordinator forgot %s; re-registering", id)
	if rerr := w.register(ctx); rerr != nil {
		return out, rerr
	}
	w.mu.Lock()
	id = w.id
	w.mu.Unlock()
	return fn(id)
}

// runTask executes one leased unit and reports its outcome. A panic in the
// engine, or a result too large to send, is the unit's error like any
// other: MaxRetries decides.
func (w *worker) runTask(ctx context.Context, task Task) {
	unitCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	fl := &inflight{cancel: cancel}
	key := UnitKey{Job: task.Job, Unit: task.Unit.Name()}
	w.mu.Lock()
	w.inflight[key] = fl
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.inflight, key)
		w.mu.Unlock()
	}()

	var res *core.UnitResult
	err := campaign.Safely(func() (err error) {
		res, err = w.cfg.run(unitCtx, task.Unit, w.cfg.EngineWorkers, fl.done.Part())
		return err
	})
	if unitCtx.Err() != nil {
		// Aborted (job cancelled / unit re-leased) or the worker is
		// shutting down; the lease will expire on its own.
		return
	}
	req := CompleteRequest{Lease: task.Lease, Job: task.Job, Unit: key.Unit}
	var payload []byte
	if err != nil {
		req.Error = err.Error()
	} else if payload, err = EncodeUnitResult(res); err != nil {
		req.Error = err.Error()
	}
	reply, err := call(ctx, w, func(id string) (CompleteReply, error) {
		req.WorkerID = id
		return w.tr.Complete(withPayload(req, payload, maxRPCBody))
	})
	switch {
	case err != nil:
		// Dropped on the floor; the coordinator re-leases after expiry
		// and the deterministic re-run produces the same result.
		w.cfg.Logf("fabric worker: complete %s/%s: %v (result dropped)", key.Job, key.Unit, err)
	case reply.Status == CompleteDeduped:
		w.cfg.Logf("fabric worker: %s/%s was already completed elsewhere (deduped)", key.Job, key.Unit)
	case reply.Status == CompleteDropped:
		w.cfg.Logf("fabric worker: %s/%s no longer wanted (dropped)", key.Job, key.Unit)
	}
}

// withPayload returns req carrying payload, or, when req encoded with it
// would exceed limit bytes of JSON, an error in its place: the coordinator
// would refuse that body every time, and only an error lets MaxRetries end
// the unit instead of its lease expiring and re-leasing it forever.
func withPayload(req CompleteRequest, payload []byte, limit int) CompleteRequest {
	if len(payload) == 0 {
		return req
	}
	head, _ := json.Marshal(req) // strings only: it cannot fail
	// The payload adds `,"payload":"…"`, its bytes in base64.
	if n := len(head) + len(`,"payload":""`) + base64.StdEncoding.EncodedLen(len(payload)); n > limit {
		req.Error = fmt.Sprintf("fabric: unit result payload %d bytes exceeds limit: its complete request encodes to %d bytes, over %d; split its campaign",
			len(payload), n, limit)
		return req
	}
	req.Payload = payload
	return req
}

// heartbeatLoop renews leases and reports in-flight progress at a third
// of the coordinator's lease timeout (set by register).
func (w *worker) heartbeatLoop(ctx context.Context) {
	w.mu.Lock()
	every := w.hbEvery
	w.mu.Unlock()
	if every <= 0 {
		every = time.Second
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		w.mu.Lock()
		beats := make([]Beat, 0, len(w.inflight))
		flights := make(map[UnitKey]*inflight, len(w.inflight))
		for key, fl := range w.inflight {
			beats = append(beats, Beat{Job: key.Job, Unit: key.Unit, Done: fl.done.Done()})
			flights[key] = fl
		}
		w.mu.Unlock()
		// Send even when beats is empty: an idle worker's heartbeat is what
		// keeps its registration alive. Skipping it leaves lastSeen to the
		// Lease poll alone, and a worker with a long poll interval drifts
		// past the coordinator's silence horizon, gets garbage-collected,
		// and flaps through re-registration.
		reply, err := call(ctx, w, func(id string) (HeartbeatReply, error) {
			return w.tr.Heartbeat(HeartbeatRequest{WorkerID: id, Beats: beats})
		})
		if err != nil {
			if ctx.Err() == nil {
				w.cfg.Logf("fabric worker: heartbeat: %v", err)
			}
			continue
		}
		for _, key := range reply.Abort {
			if fl := flights[key]; fl != nil {
				w.cfg.Logf("fabric worker: aborting %s/%s on coordinator request", key.Job, key.Unit)
				fl.cancel()
			}
		}
	}
}

// sleepCtx sleeps for d (or not at all when d <= 0) unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
