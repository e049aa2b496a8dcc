package fabric

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"gpufi/internal/core"
)

// maxOutstanding bounds each worker's lease window: the number of units
// it may hold at once. This is the fabric's backpressure — a slow worker
// cannot hoard the tail of a campaign, and a fast one cannot drain the
// queue faster than it streams results back.
const maxOutstanding = 4

// CoordinatorConfig tunes the lease discipline. The zero value is usable.
type CoordinatorConfig struct {
	// LeaseTimeout is how long a leased unit may go without a heartbeat
	// before it is re-leased to another worker. Default 30s.
	LeaseTimeout time.Duration

	// MaxRetries is how many times a unit may fail (worker-reported
	// engine error) before the whole job is failed. Lease expiries do not
	// count — only explicit errors. Default 3.
	MaxRetries int

	// SweepEvery is the lease-expiry sweep cadence; default LeaseTimeout/4.
	SweepEvery time.Duration

	// Logf, when non-nil, receives coordinator diagnostics (re-leases,
	// dedups, determinism violations).
	Logf func(format string, args ...any)

	// now overrides time.Now in tests.
	now func() time.Time
}

func (c *CoordinatorConfig) defaults() {
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 30 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.LeaseTimeout / 4
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// unitPhase is the lease state machine of one unit:
//
//	pending ──lease──▶ leased ──complete──▶ done
//	   ▲                  │
//	   └──expiry/error────┘  (error beyond MaxRetries fails the unit: done with failure)
type unitPhase uint8

const (
	unitPending unitPhase = iota
	unitLeased
	unitDone
)

// unitState tracks one plan unit through the lease state machine.
type unitState struct {
	unit core.Unit

	phase    unitPhase
	worker   string // leased: holder's worker ID
	lease    string // leased: current lease ID
	deadline time.Time
	done     int // heartbeat progress within the unit (faults completed)
	retries  int

	payload []byte           // done: canonical encoding, the dedup reference
	result  *core.UnitResult // done: decoded once at acceptance
	failure string           // done: terminal error instead of a result
	ready   chan struct{}    // closed when phase becomes done
}

// jobRun is one distributed campaign registered with the coordinator.
type jobRun struct {
	id       string
	units    map[string]*unitState
	order    []string
	progress func(done int)

	reLeased uint64
	deduped  uint64
}

// doneFaults returns the job's completed-fault progress: full unit totals
// for finished units plus heartbeat progress of in-flight ones.
func (jr *jobRun) doneFaults() int {
	done := 0
	for _, u := range jr.units {
		switch u.phase {
		case unitDone:
			done += u.unit.Faults
		case unitLeased:
			if u.done < u.unit.Faults {
				done += u.done
			} else {
				done += u.unit.Faults
			}
		}
	}
	return done
}

// workerState is the registry entry of one worker.
type workerState struct {
	id, name  string
	lastSeen  time.Time
	leased    map[UnitKey]struct{}
	completed uint64
}

// Coordinator owns the distributed campaigns' plans and lease state. It
// implements Transport natively for in-process workers.
type Coordinator struct {
	cfg CoordinatorConfig

	mu       sync.Mutex
	jobs     map[string]*jobRun
	jobOrder []string
	workers  map[string]*workerState
	epoch    int64 // creation time, embedded in worker IDs
	wseq     int
	lseq     int

	closed   chan struct{}
	sweepWG  sync.WaitGroup
	stopOnce sync.Once
}

// NewCoordinator builds a coordinator and starts its lease-expiry sweeper.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	cfg.defaults()
	c := &Coordinator{
		cfg:     cfg,
		jobs:    make(map[string]*jobRun),
		workers: make(map[string]*workerState),
		epoch:   cfg.now().UnixNano(),
		closed:  make(chan struct{}),
	}
	c.sweepWG.Add(1)
	go func() {
		defer c.sweepWG.Done()
		t := time.NewTicker(cfg.SweepEvery)
		defer t.Stop()
		for {
			select {
			case <-c.closed:
				return
			case <-t.C:
				c.mu.Lock()
				c.sweepLocked(c.cfg.now())
				c.mu.Unlock()
			}
		}
	}()
	return c
}

// Close shuts the coordinator down: pending Await calls fail with
// ErrClosed and the sweeper stops. Registered workers discover the
// shutdown through transport errors and keep polling (their results are
// simply dropped until a new coordinator appears).
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.closed) })
	c.sweepWG.Wait()
}

// JobHandle is the job runner's side of a distributed campaign.
type JobHandle struct {
	c  *Coordinator
	id string
}

// StartJob registers a campaign's unexecuted units for distribution.
// Units must have unique names. progress, when non-nil, is called with
// the job's total completed-fault count whenever it advances; it must be
// cheap and must not call back into the Coordinator.
func (c *Coordinator) StartJob(id string, units []core.Unit, progress func(done int)) (*JobHandle, error) {
	select {
	case <-c.closed:
		return nil, ErrClosed
	default:
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("fabric: job %s has no units to distribute", id)
	}
	jr := &jobRun{
		id:       id,
		units:    make(map[string]*unitState, len(units)),
		progress: progress,
	}
	for _, u := range units {
		name := u.Name()
		if _, dup := jr.units[name]; dup {
			return nil, fmt.Errorf("fabric: job %s has duplicate unit %s", id, name)
		}
		jr.units[name] = &unitState{unit: u, ready: make(chan struct{})}
		jr.order = append(jr.order, name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.jobs[id]; dup {
		return nil, fmt.Errorf("fabric: job %s is already registered", id)
	}
	c.jobs[id] = jr
	c.jobOrder = append(c.jobOrder, id)
	return &JobHandle{c: c, id: id}, nil
}

// Await blocks until the named unit completes and returns its decoded
// result. It fails when the unit failed terminally, the handle was
// stopped, the coordinator closed, or ctx ended.
func (h *JobHandle) Await(ctx context.Context, unit string) (*core.UnitResult, error) {
	h.c.mu.Lock()
	jr := h.c.jobs[h.id]
	if jr == nil {
		h.c.mu.Unlock()
		return nil, fmt.Errorf("fabric: job %s is not registered", h.id)
	}
	u := jr.units[unit]
	h.c.mu.Unlock()
	if u == nil {
		return nil, fmt.Errorf("fabric: job %s has no unit %s", h.id, unit)
	}
	select {
	case <-u.ready:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-h.c.closed:
		return nil, ErrClosed
	}
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	if u.failure != "" {
		return nil, fmt.Errorf("fabric: unit %s failed on workers after %d attempts: %s", unit, u.retries, u.failure)
	}
	return u.result, nil
}

// Stop deregisters the job. In-flight workers learn through heartbeat
// aborts and completion drops; already-delivered results stay valid.
func (h *JobHandle) Stop() {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	if _, ok := h.c.jobs[h.id]; !ok {
		return
	}
	delete(h.c.jobs, h.id)
	order := h.c.jobOrder[:0]
	for _, id := range h.c.jobOrder {
		if id != h.id {
			order = append(order, id)
		}
	}
	h.c.jobOrder = order
	for _, w := range h.c.workers {
		for key := range w.leased {
			if key.Job == h.id {
				delete(w.leased, key)
			}
		}
	}
}

// sweepLocked re-leases expired units and garbage-collects workers that
// have been silent for several lease timeouts. Caller holds c.mu.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, id := range c.jobOrder {
		jr := c.jobs[id]
		for _, name := range jr.order {
			u := jr.units[name]
			if u.phase == unitLeased && now.After(u.deadline) {
				c.cfg.Logf("fabric: lease %s on %s/%s expired (worker %s); re-leasing", u.lease, id, name, u.worker)
				if w := c.workers[u.worker]; w != nil {
					delete(w.leased, UnitKey{Job: id, Unit: name})
				}
				u.phase = unitPending
				u.worker, u.lease = "", ""
				u.done = 0
				jr.reLeased++
			}
		}
	}
	horizon := now.Add(-4 * c.cfg.LeaseTimeout)
	for id, w := range c.workers {
		if len(w.leased) == 0 && w.lastSeen.Before(horizon) {
			delete(c.workers, id)
		}
	}
}

// Register implements Transport.
func (c *Coordinator) Register(req RegisterRequest) (RegisterReply, error) {
	select {
	case <-c.closed:
		return RegisterReply{}, ErrClosed
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wseq++
	w := &workerState{
		// The ID embeds the coordinator's creation time so IDs issued by a
		// previous coordinator incarnation never alias a current worker —
		// stale IDs fail with ErrUnknownWorker and force a re-registration.
		id:       fmt.Sprintf("w-%x-%06d", c.epoch, c.wseq),
		name:     req.Name,
		lastSeen: c.cfg.now(),
		leased:   make(map[UnitKey]struct{}),
	}
	c.workers[w.id] = w
	c.cfg.Logf("fabric: worker %s (%q) registered", w.id, w.name)
	return RegisterReply{WorkerID: w.id, LeaseTimeoutMS: c.cfg.LeaseTimeout.Milliseconds()}, nil
}

// Lease implements Transport: grant up to req.Max pending units, capped
// by the worker's remaining lease window. Jobs are served in registration
// order and units in plan order, so the fabric finishes the oldest
// campaign first.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.WorkerID]
	if w == nil {
		return LeaseReply{}, ErrUnknownWorker
	}
	now := c.cfg.now()
	w.lastSeen = now
	c.sweepLocked(now)
	budget := maxOutstanding - len(w.leased)
	if req.Max < budget {
		budget = req.Max
	}
	var reply LeaseReply
	for _, id := range c.jobOrder {
		jr := c.jobs[id]
		for _, name := range jr.order {
			if budget <= 0 {
				return reply, nil
			}
			u := jr.units[name]
			if u.phase != unitPending {
				continue
			}
			c.lseq++
			u.phase = unitLeased
			u.worker = w.id
			u.lease = fmt.Sprintf("l-%08d", c.lseq)
			u.deadline = now.Add(c.cfg.LeaseTimeout)
			u.done = 0
			w.leased[UnitKey{Job: id, Unit: name}] = struct{}{}
			reply.Tasks = append(reply.Tasks, Task{Job: id, Lease: u.lease, Unit: u.unit})
			budget--
		}
	}
	return reply, nil
}

// Heartbeat implements Transport: extend the caller's leases, record
// progress, and tell it which in-flight units to abandon.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.WorkerID]
	if w == nil {
		return HeartbeatReply{}, ErrUnknownWorker
	}
	now := c.cfg.now()
	w.lastSeen = now
	var reply HeartbeatReply
	for _, b := range req.Beats {
		jr := c.jobs[b.Job]
		if jr == nil {
			reply.Abort = append(reply.Abort, UnitKey{Job: b.Job, Unit: b.Unit})
			continue
		}
		u := jr.units[b.Unit]
		if u == nil || u.phase != unitLeased || u.worker != w.id {
			reply.Abort = append(reply.Abort, UnitKey{Job: b.Job, Unit: b.Unit})
			continue
		}
		u.deadline = now.Add(c.cfg.LeaseTimeout)
		if b.Done > u.done {
			u.done = b.Done
			if jr.progress != nil {
				jr.progress(jr.doneFaults())
			}
		}
	}
	return reply, nil
}

// Complete implements Transport: accept, dedup or drop one unit result.
// A result is accepted from any registered worker as long as the unit is
// not done yet — a stale lease only means the unit was also handed to
// someone else, and deterministic seeds make both results interchangeable.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.WorkerID]
	if w == nil {
		return CompleteReply{}, ErrUnknownWorker
	}
	now := c.cfg.now()
	w.lastSeen = now
	key := UnitKey{Job: req.Job, Unit: req.Unit}
	delete(w.leased, key)
	jr := c.jobs[req.Job]
	if jr == nil {
		return CompleteReply{Status: CompleteDropped}, nil
	}
	u := jr.units[req.Unit]
	if u == nil {
		return CompleteReply{Status: CompleteDropped}, nil
	}
	if holder := c.workers[u.worker]; u.phase == unitLeased && holder != nil && holder != w {
		// The unit was re-leased elsewhere; this completion supersedes it.
		delete(holder.leased, key)
	}

	if u.phase == unitDone {
		if u.failure != "" {
			return CompleteReply{Status: CompleteDropped}, nil
		}
		if req.Error != "" {
			return CompleteReply{Status: CompleteDropped}, nil
		}
		if !bytes.Equal(req.Payload, u.payload) {
			c.cfg.Logf("fabric: DETERMINISM VIOLATION: %s/%s: duplicate result from %s differs from accepted payload (%d vs %d bytes)",
				req.Job, req.Unit, w.id, len(req.Payload), len(u.payload))
			return CompleteReply{}, ErrResultMismatch
		}
		jr.deduped++
		c.cfg.Logf("fabric: deduped byte-identical duplicate of %s/%s from %s", req.Job, req.Unit, w.id)
		return CompleteReply{Status: CompleteDeduped}, nil
	}

	if req.Error != "" {
		u.retries++
		if u.retries < c.cfg.MaxRetries {
			c.cfg.Logf("fabric: unit %s/%s failed on %s (attempt %d/%d): %s; re-leasing",
				req.Job, req.Unit, w.id, u.retries, c.cfg.MaxRetries, req.Error)
			u.phase = unitPending
			u.worker, u.lease = "", ""
			u.done = 0
			return CompleteReply{Status: CompleteAccepted}, nil
		}
		u.phase = unitDone
		u.failure = req.Error
		close(u.ready)
		return CompleteReply{Status: CompleteAccepted}, nil
	}

	res, err := DecodeUnitResult(req.Payload)
	if err != nil {
		return CompleteReply{}, err
	}
	if got := res.Unit.Name(); got != req.Unit {
		return CompleteReply{}, fmt.Errorf("fabric: completion for %s carries result of %s", req.Unit, got)
	}
	u.phase = unitDone
	u.worker, u.lease = "", ""
	u.payload = req.Payload
	u.result = res
	u.done = u.unit.Faults
	w.completed++
	close(u.ready)
	if jr.progress != nil {
		jr.progress(jr.doneFaults())
	}
	return CompleteReply{Status: CompleteAccepted}, nil
}

// WorkerStatus is the status view of one registered worker.
type WorkerStatus struct {
	ID         string `json:"id"`
	Name       string `json:"name,omitempty"`
	Live       bool   `json:"live"` // heartbeated within two lease timeouts
	Leased     int    `json:"leased"`
	Completed  uint64 `json:"completed"`
	LastSeenMS int64  `json:"last_seen_ms"` // milliseconds since last contact
}

// LeaseStatus is the status view of one in-flight lease.
type LeaseStatus struct {
	Unit      string `json:"unit"`
	Worker    string `json:"worker"`
	Done      int    `json:"done"`
	ExpiresMS int64  `json:"expires_ms"` // milliseconds until expiry
}

// JobStatus is the status view of one distributed campaign.
type JobStatus struct {
	Job          string        `json:"job"`
	UnitsPending int           `json:"units_pending"`
	UnitsLeased  int           `json:"units_leased"`
	UnitsDone    int           `json:"units_done"`
	ReLeased     uint64        `json:"re_leased"`
	Deduped      uint64        `json:"deduped"`
	Leases       []LeaseStatus `json:"leases,omitempty"`
}

// Status is the coordinator-wide status view.
type Status struct {
	Workers []WorkerStatus `json:"workers"`
	Jobs    []JobStatus    `json:"jobs"`
}

// Status snapshots the fabric: every worker and every registered job's
// lease state.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	st := Status{Workers: []WorkerStatus{}, Jobs: []JobStatus{}}
	var wids []string
	for id := range c.workers {
		wids = append(wids, id)
	}
	sort.Strings(wids)
	for _, id := range wids {
		w := c.workers[id]
		st.Workers = append(st.Workers, WorkerStatus{
			ID:         w.id,
			Name:       w.name,
			Live:       now.Sub(w.lastSeen) <= 2*c.cfg.LeaseTimeout,
			Leased:     len(w.leased),
			Completed:  w.completed,
			LastSeenMS: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	for _, id := range c.jobOrder {
		st.Jobs = append(st.Jobs, c.jobStatusLocked(c.jobs[id], now))
	}
	return st
}

// JobStatus returns one registered job's lease state, or ok=false when
// the job is not distributed right now.
func (c *Coordinator) JobStatus(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	jr, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return c.jobStatusLocked(jr, c.cfg.now()), true
}

func (c *Coordinator) jobStatusLocked(jr *jobRun, now time.Time) JobStatus {
	js := JobStatus{Job: jr.id, ReLeased: jr.reLeased, Deduped: jr.deduped}
	for _, name := range jr.order {
		u := jr.units[name]
		switch u.phase {
		case unitPending:
			js.UnitsPending++
		case unitLeased:
			js.UnitsLeased++
			js.Leases = append(js.Leases, LeaseStatus{
				Unit:      name,
				Worker:    u.worker,
				Done:      u.done,
				ExpiresMS: u.deadline.Sub(now).Milliseconds(),
			})
		case unitDone:
			js.UnitsDone++
		}
	}
	return js
}
