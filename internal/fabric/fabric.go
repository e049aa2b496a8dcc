// Package fabric shards RTL characterisation campaigns across worker
// nodes. A Coordinator owns the campaign plan — the deterministic list of
// seeded core.Unit campaigns a job decomposes into — and hands bounded
// batches of units to registered workers under time-limited leases.
// Workers execute the units with the ordinary rtlfi engines (core.RunUnit)
// and stream the results back; the coordinator re-leases units whose
// lease expires (dead or stalled worker), deduplicates double completions
// by byte-comparing their canonical payload encoding, and delivers
// results to the job runner in plan order so the merged characterisation
// is bit-identical to a single-node run.
//
// The determinism argument is the same one that makes checkpointed jobs
// resumable: every unit's engine seed is fixed at planning time and every
// injection's RNG stream is derived from (seed, injection index), so a
// unit computes the same result on any node, any number of times, with
// any engine worker count. Distribution therefore only changes *where*
// and *when* units run, never what they produce — which is what lets the
// coordinator treat duplicated work as a cheap idempotency problem
// (byte-compare and drop) instead of a consistency problem.
//
// The worker side (RunWorker) talks to the coordinator through the small
// Transport interface. Over the network that is the JSON/HTTP API served
// by Coordinator.Handler (see httpapi.go); in process — `gpufi serve` runs
// a local worker loop next to its coordinator so a single node still
// makes progress with zero remote workers — the Coordinator itself is the
// Transport.
package fabric

import (
	"errors"

	"gpufi/internal/core"
)

// Protocol errors shared by the native and HTTP transports.
var (
	// ErrUnknownWorker means the coordinator does not know the caller's
	// worker ID — it restarted, or the worker was garbage-collected after
	// going silent. The worker's recovery is to register again.
	ErrUnknownWorker = errors.New("fabric: unknown worker (re-register)")

	// ErrResultMismatch means a duplicate completion for a unit carried a
	// payload that is not byte-identical to the accepted one — a
	// determinism violation that must never happen with honest workers.
	ErrResultMismatch = errors.New("fabric: duplicate result differs from accepted result")

	// ErrClosed means the coordinator has shut down.
	ErrClosed = errors.New("fabric: coordinator closed")
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is a human-readable worker label for status displays; it need
	// not be unique (the coordinator assigns the unique worker ID).
	Name string `json:"name"`
}

// RegisterReply carries the worker's identity and the coordinator's lease
// discipline.
type RegisterReply struct {
	WorkerID string `json:"worker_id"`
	// LeaseTimeoutMS is the lease duration in milliseconds; workers must
	// heartbeat well within it or their units are re-leased.
	LeaseTimeoutMS int64 `json:"lease_timeout_ms"`
}

// LeaseRequest asks for up to Max units of work.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max"`
}

// Task is one leased unit: the job it belongs to, the lease that must
// accompany its completion, and the self-contained campaign description.
type Task struct {
	Job   string    `json:"job"`
	Lease string    `json:"lease"`
	Unit  core.Unit `json:"unit"`
}

// LeaseReply returns the granted tasks; empty means no work is pending
// (or the worker's lease window is full) and the worker should poll again.
type LeaseReply struct {
	Tasks []Task `json:"tasks,omitempty"`
}

// Beat reports liveness and progress for one in-flight unit; a heartbeat
// carrying it also extends the unit's lease.
type Beat struct {
	Job  string `json:"job"`
	Unit string `json:"unit"`
	Done int    `json:"done"` // faults completed so far
}

// HeartbeatRequest renews the worker's leases and reports progress.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	Beats    []Beat `json:"beats,omitempty"`
}

// UnitKey names one unit of one job.
type UnitKey struct {
	Job  string `json:"job"`
	Unit string `json:"unit"`
}

// HeartbeatReply lists the in-flight units the worker should abandon:
// their job was cancelled, or the unit was completed elsewhere after a
// lease expiry.
type HeartbeatReply struct {
	Abort []UnitKey `json:"abort,omitempty"`
}

// CompleteRequest delivers one unit's result (or terminal error).
// Payload is the canonical encoding produced by EncodeUnitResult; JSON
// transports it as base64.
type CompleteRequest struct {
	WorkerID string `json:"worker_id"`
	Lease    string `json:"lease"`
	Job      string `json:"job"`
	Unit     string `json:"unit"`
	Payload  []byte `json:"payload,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Completion outcomes.
const (
	CompleteAccepted = "accepted" // first result for the unit
	CompleteDeduped  = "deduped"  // byte-identical duplicate, dropped
	CompleteDropped  = "dropped"  // unit or job no longer exists (e.g. cancelled)
)

// CompleteReply acknowledges a completion.
type CompleteReply struct {
	Status string `json:"status"`
}

// Transport is the worker's view of a coordinator. *Coordinator
// implements it natively for in-process workers; HTTPTransport implements
// it over the coordinator's HTTP API.
type Transport interface {
	Register(req RegisterRequest) (RegisterReply, error)
	Lease(req LeaseRequest) (LeaseReply, error)
	Heartbeat(req HeartbeatRequest) (HeartbeatReply, error)
	Complete(req CompleteRequest) (CompleteReply, error)
}
