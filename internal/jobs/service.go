package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpufi/internal/campaign"
	"gpufi/internal/core"
	"gpufi/internal/fabric"
	"gpufi/internal/swfi"
	"gpufi/internal/syndrome"
)

// State is a job's lifecycle stage.
type State string

// Job states. Queued and running jobs survive a service restart (they are
// re-queued and resume from their last checkpointed unit); the other
// states are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Config tunes a Service. The zero value is usable: no persistence, one
// job slot per CPU, single-threaded engines.
type Config struct {
	// Dir is the checkpoint journal directory; empty disables
	// persistence (jobs then live only as long as the service).
	Dir string

	// Workers bounds how many jobs run concurrently; default
	// runtime.NumCPU().
	Workers int

	// EngineWorkers is one job's CPU budget: the engine worker count of an
	// hpc or cnn unit, split over the units a local characterize job keeps
	// in flight. Results do not depend on it. Default 1, so total
	// parallelism stays near Workers even when the pool is saturated.
	EngineWorkers int

	// CheckpointEvery is the progress-journal cadence while a unit is in
	// flight; completed units checkpoint immediately. Default 2s.
	CheckpointEvery time.Duration

	// QueueDepth bounds the submission queue; Submit fails once it is
	// full. Default 1024.
	QueueDepth int

	// SSEKeepAlive is the idle keep-alive cadence of the /jobs/{id}/events
	// stream: an SSE comment line is written whenever the stream would
	// otherwise stay silent, so proxies and idle-timeout middleboxes do
	// not sever long-running campaign streams. Default 15s.
	SSEKeepAlive time.Duration

	// Fabric, when non-nil, distributes characterize jobs' plan units
	// across the coordinator's registered workers instead of running them
	// in-process. Results are merged back in plan order, so a distributed
	// job's journal, syndrome database and final result are bit-identical
	// to a local run. HPC and CNN jobs always run locally.
	Fabric *fabric.Coordinator

	// Logf, when non-nil, receives service diagnostics (checkpoint write
	// failures and the like).
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 2 * time.Second
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.SSEKeepAlive <= 0 {
		c.SSEKeepAlive = 15 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Job is one submitted campaign. All mutable fields are guarded by mu; the
// progress meter is lock-free, so engine progress callbacks never contend
// with status reads.
type Job struct {
	id  string
	req Request

	done    campaign.Meter // progress toward Total in this process; journalled units count once the job runs
	resumed int64          // the done count the journal held at load; see doneCount

	mu            sync.Mutex
	rtl           core.Telemetry // characterize jobs: the completed units' counters, folded as each commits
	sw            swfi.Counters  // hpc and cnn jobs: the same
	swLive        swLive         // live software-unit throughput; not journalled
	state         State
	errMsg        string
	unitsTotal    int
	unitsDone     int                // len(units), kept once they are dropped
	units         []json.RawMessage  // the committed units' records, in plan order; nil once terminal
	char          charDB             // a characterize job's database, built from units
	result        json.RawMessage    // a done job's, when no journal record holds it
	record        resultSpan         // where the done job's record holds it
	cancel        context.CancelFunc // non-nil while running
	userCancelled bool

	// terminal is closed once the job has shown a terminal state, so an
	// event stream can send its last event without waiting for a poll.
	terminal chan struct{}

	// journalMu serialises the job's journal records, each from marshal to
	// rename, so the last record written is always the newest. It is taken
	// before mu and never while mu is held.
	journalMu sync.Mutex
}

// charDB is a characterize job's accumulating syndrome database with each
// entry's journal encoding beside it. An entry never changes once
// ingested, so it is encoded once, and a record's database is appended
// from the encodings instead of re-encoding every earlier unit's
// reservoirs after each new one.
type charDB struct {
	db      *syndrome.DB
	entries map[syndrome.Key]json.RawMessage
	tmxm    map[syndrome.TMXMKey]json.RawMessage
}

func newCharDB() charDB {
	return charDB{
		db:      syndrome.New(),
		entries: make(map[syndrome.Key]json.RawMessage),
		tmxm:    make(map[syndrome.TMXMKey]json.RawMessage),
	}
}

// restoreCharDB rebuilds the database a checkpoint recorded.
func restoreCharDB(blob json.RawMessage) (c charDB, err error) {
	c.db = syndrome.New()
	if err = json.Unmarshal(blob, c.db); err != nil {
		return charDB{}, err
	}
	if c.entries, c.tmxm, err = c.db.EncodeEntries(); err != nil {
		return charDB{}, err
	}
	return c, nil
}

// ingest folds one executed characterisation unit into the database.
func (c *charDB) ingest(res *core.UnitResult) (err error) {
	if res.Micro != nil {
		e := c.db.AddMicro(res.Micro)
		c.entries[e.Key], err = json.Marshal(e)
		return err
	}
	e := c.db.AddTMXM(res.TMXM)
	c.tmxm[syndrome.TMXMKey{Module: e.Module, Kind: e.Kind}], err = json.Marshal(e)
	return err
}

// appendJSON appends the database to buf: exactly the bytes
// json.Marshal(c.db) gives.
func (c *charDB) appendJSON(buf []byte) []byte { return syndrome.AppendJSON(buf, c.entries, c.tmxm) }

// journalForm is the database as a record holds it: nothing until the
// first unit is in, then appendJSON's bytes.
func (c *charDB) journalForm() json.RawMessage {
	if len(c.entries)+len(c.tmxm) == 0 {
		return nil
	}
	return c.appendJSON(nil)
}

// Status is a point-in-time, JSON-ready view of a job. Only Get fills in
// Result.
type Status struct {
	ID         string            `json:"id"`
	Kind       Kind              `json:"kind"`
	State      State             `json:"state"`
	Done       int64             `json:"done"`
	Total      int64             `json:"total"`
	UnitsDone  int               `json:"units_done"`
	UnitsTotal int               `json:"units_total"`
	Error      string            `json:"error,omitempty"`
	RTL        *RTLTelemetry     `json:"rtl,omitempty"`    // characterize jobs, once a unit completed
	SW         *SWTelemetry      `json:"sw,omitempty"`     // hpc/cnn jobs, once a unit completed
	Fabric     *fabric.JobStatus `json:"fabric,omitempty"` // distributed jobs: worker/lease state
	Result     json.RawMessage   `json:"result,omitempty"`
}

// RTLTelemetry is the status view of a characterize job's engine
// counters, aggregated over its completed units, with the injection count
// and the derived ratios spelled out for JSON consumers. Because the
// counters live in the journalled unit results, the aggregate survives
// service restarts and job resumption.
type RTLTelemetry struct {
	Injections int `json:"injections"` // the embedded counters keep theirs out of JSON
	core.Telemetry
	ReplaySpeedup float64 `json:"replay_speedup,omitempty"`
	PruneRate     float64 `json:"prune_rate"`
	VectorRate    float64 `json:"vector_rate"`
	LaneOccupancy float64 `json:"lane_occupancy"`
}

// SWTelemetry is the status view of a software-level (HPC or CNN) job's
// instruction counters, aggregated over its completed units. It mirrors
// the rtl block, including restart survival via the journalled unit
// results. EmuMIPS is millions of interpreted instructions per wall-clock
// second over the summed durations of units run in this process (restored
// units carry counters but no duration); EffectiveMIPS counts the
// fast-forward-skipped instructions too.
type SWTelemetry struct {
	Injections int `json:"injections"` // as in RTLTelemetry
	swfi.Counters
	ElapsedNS     uint64  `json:"elapsed_ns,omitempty"`
	FFSpeedup     float64 `json:"ff_speedup,omitempty"`
	EmuMIPS       float64 `json:"emu_mips,omitempty"`
	EffectiveMIPS float64 `json:"effective_mips,omitempty"`
}

// Status snapshots the job, without its result.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:         j.id,
		Kind:       j.req.Kind,
		State:      j.state,
		Done:       j.doneCount(),
		Total:      int64(j.done.Total),
		UnitsDone:  j.unitsDone,
		UnitsTotal: j.unitsTotal,
		Error:      j.errMsg,
		RTL:        j.rtlTelemetry(j.unitsDone),
		SW:         j.swTelemetry(j.unitsDone),
	}
}

// foldRecord adds a unit's journal record to the job's telemetry, as
// runUnits adds a unit it commits. Records written by older service
// versions unmarshal their missing counters as zero, which only
// understates the aggregate.
func (j *Job) foldRecord(raw json.RawMessage) {
	if j.req.Kind == KindCharacterize {
		var u CharUnitResult
		if json.Unmarshal(raw, &u) == nil {
			u.Counters.Injections = u.Tally.Injections
			j.rtl.Merge(u.Counters)
		}
		return
	}
	var u HPCUnitResult // a CNN unit's record has the same tally and counters
	if json.Unmarshal(raw, &u) == nil {
		u.Counters.Injections = u.Tally.Injections
		j.sw.Merge(u.Counters)
	}
}

// rtlTelemetry derives the status view of the folded characterisation
// counters. Caller holds j.mu.
func (j *Job) rtlTelemetry(units int) *RTLTelemetry {
	if j.req.Kind != KindCharacterize || units == 0 {
		return nil
	}
	agg := &RTLTelemetry{Injections: j.rtl.Injections, Telemetry: j.rtl}
	// A fully pruned aggregate has an infinite speedup, which JSON cannot
	// carry; the field is omitted (0) in that corner.
	if rs := agg.Telemetry.ReplaySpeedup(); !math.IsInf(rs, 1) {
		agg.ReplaySpeedup = rs
	}
	agg.PruneRate = agg.Telemetry.PruneRate()
	agg.VectorRate = agg.Telemetry.VectorRate()
	agg.LaneOccupancy = agg.Telemetry.LaneOccupancy()
	return agg
}

// swTelemetry derives the status view of the folded software-campaign
// counters. Caller holds j.mu.
func (j *Job) swTelemetry(units int) *SWTelemetry {
	if (j.req.Kind != KindHPC && j.req.Kind != KindCNN) || units == 0 {
		return nil
	}
	agg := &SWTelemetry{Injections: j.sw.Injections, Counters: j.sw}
	agg.FFSpeedup = agg.Counters.FFSpeedup()
	// Throughput comes from the live counters, not the journal: wall time
	// is nondeterministic and must stay out of the bit-identical unit
	// results, so units restored after a restart carry no duration and
	// the rates cover work done in this process only.
	if live := j.swLive; live.elapsed > 0 {
		agg.ElapsedNS = uint64(live.elapsed)
		agg.EmuMIPS = live.EmuMIPS(live.elapsed)
		agg.EffectiveMIPS = live.EffectiveMIPS(live.elapsed)
	}
	return agg
}

// doneCount is the job's visible progress. A resumed job's journal may have
// counted faults of a unit that was in flight at the interruption and now
// runs again; the count holds there until the rerun passes it.
func (j *Job) doneCount() int64 { return max(j.resumed, int64(j.done.Done())) }

// checkpoint is a job's journal record, written atomically to
// Dir/job-<id>.json after every completed unit and on the periodic tick.
// Its last field, once a unit has committed, is the job's result so far:
// Result's encoding of the committed units in plan order and, for a
// characterize job, the database built from them. Service.journal appends
// it after the marshalled head; a done record's is the job's result.
type checkpoint struct {
	ID         string          `json:"id"`
	Request    Request         `json:"request"`
	State      State           `json:"state"`
	Done       int64           `json:"done"`
	Total      int64           `json:"total"`
	UnitsTotal int             `json:"units_total"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// resultSpan is where a done job's journal record holds its result — the
// record's last field, as Service.journal appends it — with the result's
// checksum, so the job can serve the result from there and notice a record
// that changed under it.
type resultSpan struct {
	off int64
	n   int
	sum uint32
}

// read returns the result from the record at path.
func (r resultSpan) read(path string) (json.RawMessage, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, r.n)
	if _, err := f.ReadAt(buf, r.off); err != nil || crc32.ChecksumIEEE(buf) != r.sum {
		return nil, fmt.Errorf("jobs: journal record %s no longer holds its job's result (%v)", path, err)
	}
	return buf, nil
}

// Submission errors that map to 503 rather than 400 over HTTP.
var (
	errClosed    = fmt.Errorf("jobs: service is shut down")
	errQueueFull = fmt.Errorf("jobs: submission queue full")
)

// Service is the campaign job registry and worker pool.
type Service struct {
	cfg Config

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	seq    int
	closed bool

	queue chan *Job
	wg    sync.WaitGroup

	// writeFile commits a journal record; tests substitute it to hold a
	// write open.
	writeFile func(path string, data []byte, perm os.FileMode) error

	// compile plans a job; tests substitute it to hold or fail its units.
	compile func(Request) (*program, error)

	// eventsPoll is how often an SSE stream re-samples the status of a job
	// that is still going; it bounds the rate of progress events.
	eventsPoll time.Duration
}

// New builds a service, reloads any checkpointed jobs from cfg.Dir
// (re-queuing the unfinished ones), and starts the worker pool.
func New(cfg Config) (*Service, error) {
	cfg.defaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth),
		writeFile:  syndrome.WriteFileAtomic,
		compile:    compile,
		eventsPoll: 100 * time.Millisecond,
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			cancel()
			return nil, err
		}
		if err := s.loadCheckpoints(); err != nil {
			cancel()
			return nil, err
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// loadCheckpoints restores jobs from the journal directory. Unfinished
// jobs (queued or running at the time of the previous shutdown) are
// re-queued in ID order so the oldest submission resumes first.
func (s *Service) loadCheckpoints() error {
	paths, err := filepath.Glob(filepath.Join(s.cfg.Dir, "job-*.json"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	var resume []*Job
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var ck checkpoint
		var res struct { // the result so far, its database still encoded
			Units []json.RawMessage `json:"units"`
			DB    json.RawMessage   `json:"db"`
		}
		err = json.Unmarshal(blob, &ck)
		if err == nil && len(ck.Result) > 0 {
			err = json.Unmarshal(ck.Result, &res)
		}
		if err != nil {
			return fmt.Errorf("jobs: checkpoint %s is truncated or corrupt: %w", path, err)
		}
		j := &Job{
			id:         ck.ID,
			req:        ck.Request,
			state:      ck.State,
			errMsg:     ck.Error,
			unitsTotal: ck.UnitsTotal,
			unitsDone:  len(res.Units),
			terminal:   make(chan struct{}),
			done:       campaign.Meter{Total: int(ck.Total)},
			resumed:    ck.Done,
		}
		for _, raw := range res.Units {
			j.foldRecord(raw)
		}
		switch {
		case ck.State == StateDone: // the result stays in the record, as finish leaves it
			blob = bytes.TrimRight(blob, " \t\r\n")
			off := len(blob) - 1 - len(ck.Result)
			if !bytes.Equal(blob[off:len(blob)-1], ck.Result) || bytes.ContainsAny(ck.Result, "\r\n") {
				return fmt.Errorf("jobs: checkpoint %s does not end with its compact result", path)
			}
			j.record = resultSpan{int64(off), len(ck.Result), crc32.ChecksumIEEE(ck.Result)}
		case !ck.State.Terminal():
			j.units = res.Units
			if len(res.DB) > 0 {
				if j.char, err = restoreCharDB(res.DB); err != nil {
					return fmt.Errorf("jobs: checkpoint %s is truncated or corrupt: %w", path, err)
				}
			}
			j.state = StateQueued
			resume = append(resume, j)
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(ck.ID, "j-")); err == nil && n > s.seq {
			s.seq = n
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	for _, j := range resume {
		select {
		case s.queue <- j:
		default:
			return fmt.Errorf("jobs: queue depth %d too small to resume %d checkpointed jobs", s.cfg.QueueDepth, len(resume))
		}
	}
	return nil
}

// Submit validates, registers, journals and enqueues a job.
func (s *Service) Submit(req Request) (Status, error) {
	prog, err := s.compile(req)
	if err != nil {
		return Status{}, err
	}
	total := 0
	for _, u := range prog.units {
		total += u.total
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Status{}, errClosed
	}
	s.seq++
	j := &Job{
		id:         fmt.Sprintf("j-%06d", s.seq),
		req:        req,
		state:      StateQueued,
		unitsTotal: len(prog.units),
		terminal:   make(chan struct{}),
		done:       campaign.Meter{Total: total},
	}
	// The queued record must be the job's first: hold its journal lock
	// from before a worker can see the job until the record is written,
	// so a terminal record (a job that fails at once) can only follow it.
	// The job is not visible yet, so taking the lock under s.mu cannot wait.
	j.journalMu.Lock()
	select {
	case s.queue <- j:
	default:
		j.journalMu.Unlock()
		s.seq--
		s.mu.Unlock()
		return Status{}, fmt.Errorf("%w (%d pending)", errQueueFull, s.cfg.QueueDepth)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.journal(j, nil)
	j.journalMu.Unlock()
	return j.Status(), nil
}

// Get returns a job's status by ID, with a done job's result: kept in
// memory by a service without a journal, read back from the job's record
// by one with. ok is false when there is no such job, or when that record
// no longer holds the result.
func (s *Service) Get(id string) (Status, bool) {
	j, ok := s.job(id)
	if !ok {
		return Status{}, false
	}
	st, err := s.withResult(j)
	return st, err == nil
}

func (s *Service) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns every known job's status in submission order, without
// results: Get fetches one job's.
func (s *Service) List() []Status {
	s.mu.Lock()
	js := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = s.statusOf(j)
	}
	return out
}

// statusOf snapshots a job and, when the job is currently distributed
// over the fabric, attaches the coordinator's worker/lease view so the
// status JSON (and with it the SSE stream) exposes the fleet state.
func (s *Service) statusOf(j *Job) Status {
	st := j.Status()
	if s.cfg.Fabric != nil && st.State == StateRunning {
		if fs, ok := s.cfg.Fabric.JobStatus(st.ID); ok {
			st.Fabric = &fs
		}
	}
	return st
}

// withResult is statusOf with a done job's result. A job whose result
// its journal record holds reads exactly those bytes, with no JSON parse.
func (s *Service) withResult(j *Job) (Status, error) {
	st := s.statusOf(j)
	if st.State != StateDone { // a done job never changes again
		return st, nil
	}
	j.mu.Lock()
	rec := j.record
	st.Result = j.result
	j.mu.Unlock()
	if rec.n == 0 {
		return st, nil
	}
	var err error
	st.Result, err = rec.read(s.recordPath(j.id))
	return st, err
}

// Cancel stops a queued or running job. Cancelling is idempotent;
// cancelling a terminal job is an error.
func (s *Service) Cancel(id string) (Status, error) {
	j, ok := s.job(id)
	if !ok {
		return Status{}, fmt.Errorf("jobs: no job %s", id)
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return j.Status(), fmt.Errorf("jobs: job %s already %s", id, j.Status().State)
	case j.state == StateQueued:
		// userCancelled keeps a worker from starting the job while finish
		// journals the cancellation.
		j.userCancelled = true
		j.mu.Unlock()
		s.finish(j, StateCancelled, "")
	default: // running
		j.userCancelled = true
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	return j.Status(), nil
}

// Close stops accepting submissions, cancels running jobs, waits for the
// pool to drain, and journals every unfinished job as queued so the next
// service instance resumes it.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.baseCancel()
	s.mu.Lock()
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	for _, st := range s.List() {
		if !st.State.Terminal() {
			j, _ := s.job(st.ID)
			j.mu.Lock()
			cancelling := j.userCancelled // a concurrent Cancel is journalling it
			j.mu.Unlock()
			if !cancelling {
				s.finish(j, StateQueued, "")
			}
		}
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job: compile, skip checkpointed units, run the
// rest and journal after each; the record of the last is the result.
func (s *Service) runJob(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued || j.userCancelled || s.baseCtx.Err() != nil {
		// Cancelled while queued, or the service is shutting down; in the
		// latter case the job stays queued for the next instance.
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.state = StateRunning
	j.cancel = cancel
	if j.char.db == nil {
		j.char = newCharDB()
	}
	j.mu.Unlock()
	defer cancel()

	fail := func(err error) { s.finish(j, StateFailed, err.Error()) }

	prog, err := s.compile(j.req)
	if err != nil {
		fail(err)
		return
	}
	var db *syndrome.DB
	if prog.needsDB {
		if db, err = syndrome.Load(j.req.DBPath); err != nil {
			fail(err)
			return
		}
	}

	// Periodic progress journal while units are in flight.
	stopTick := make(chan struct{})
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		t := time.NewTicker(s.cfg.CheckpointEvery)
		defer t.Stop()
		for {
			select {
			case <-stopTick:
				return
			case <-t.C:
				s.saveCheckpoint(j)
			}
		}
	}()

	runErr := s.runUnits(ctx, j, prog, db)
	close(stopTick)
	tickWG.Wait()
	if runErr != nil && ctx.Err() == nil {
		fail(runErr)
		return
	}

	if ctx.Err() != nil {
		j.mu.Lock()
		state := StateQueued // service shutdown: back to the queue for the next instance
		if j.userCancelled {
			state = StateCancelled
		}
		j.mu.Unlock()
		s.finish(j, state, "")
		return
	}
	s.finish(j, StateDone, "")
}

// finish takes a job out of the running (or queued) state: into a
// terminal one, or back to queued at shutdown. The journal is written
// first and the state published second — durable before visible — so a
// client that has seen the new state can rely on a restarted service
// agreeing with it. Both happen under the journal lock, so no other record
// of the job (Submit's first one, a checkpoint tick) can land after this
// one still showing the old state. A terminal job keeps only its status
// header: its units are folded into the telemetry, and a done job's result
// is served from its record, or kept when no record holds it.
func (s *Service) finish(j *Job, state State, errMsg string) {
	j.journalMu.Lock()
	rec, at := s.journal(j, func(ck *checkpoint) { ck.State, ck.Error = state, errMsg })
	j.mu.Lock()
	// Two Cancels of a queued job can both get here; the first one through
	// makes the state terminal and owns the close.
	wake := state.Terminal() && !j.state.Terminal()
	j.state, j.errMsg, j.cancel = state, errMsg, nil
	switch {
	case state == StateDone && at > 0:
		result := rec[at : len(rec)-1]
		j.record = resultSpan{int64(at), len(result), crc32.ChecksumIEEE(result)}
	case state == StateDone:
		j.result = resultJSON(j.req.Kind, j.units, j.char.journalForm())
	}
	if state.Terminal() {
		j.units, j.char = nil, charDB{}
	}
	j.mu.Unlock()
	j.journalMu.Unlock()
	if wake {
		close(j.terminal)
	}
}

// runUnits executes the plan after the units the journal holds on
// campaign.RunOrdered and commits each — database ingest, journal record,
// checkpoint — in plan order, so the journal and the result are the same
// bytes wherever and however many at a time the units ran: a local
// characterize job's side by side on shares of EngineWorkers, an hpc or cnn
// job's one at a time, a characterize job's on the fabric by awaiting each
// result. A nil return with ctx still alive means all are in j.units.
func (s *Service) runUnits(ctx context.Context, j *Job, prog *program, db *syndrome.DB) error {
	j.mu.Lock()
	held := len(j.units)
	j.mu.Unlock()
	if held > len(prog.units) {
		return fmt.Errorf("jobs: journal record %s holds %d units, but the job plans %d", s.recordPath(j.id), held, len(prog.units))
	}
	for _, u := range prog.units[:held] {
		j.done.Part()(u.total, u.total)
	}
	pending := prog.units[held:]
	if len(pending) == 0 {
		return nil
	}

	inFlight := 1
	exec := func(i, workers int) (outcome, error) {
		return pending[i].run(ctx, db, workers, j.done.Part())
	}
	switch {
	case j.req.Kind != KindCharacterize:
	case s.cfg.Fabric == nil:
		inFlight = s.cfg.EngineWorkers
	default:
		plan := make([]core.Unit, len(pending))
		for i, u := range pending {
			plan[i] = u.char
		}
		fleet := j.done.Part() // the coordinator reports the leased units' faults as one count
		handle, err := s.cfg.Fabric.StartJob(j.id, plan, func(done int) { fleet(done, 0) })
		if err != nil {
			return fmt.Errorf("fabric: %w", err)
		}
		defer handle.Stop()
		exec = func(i, _ int) (outcome, error) {
			res, err := handle.Await(ctx, pending[i].name)
			return outcome{char: res}, err
		}
	}

	k, err := campaign.RunOrdered(ctx, len(pending), s.cfg.EngineWorkers, inFlight, exec,
		func(i int, out outcome) (err error) {
			u := &pending[i]
			j.mu.Lock()
			if out.char != nil {
				out.raw, err = ingestCharUnit(&j.char, u.char, out.char)
				tel := out.char.Telemetry()
				tel.Injections = out.char.Tally().Injections // as foldRecord counts them
				j.rtl.Merge(tel)
			}
			if err != nil {
				j.mu.Unlock()
				return err
			}
			j.units = append(j.units, out.raw)
			j.unitsDone++
			j.sw.Merge(out.sw.Counters)
			j.swLive.Merge(out.sw.Counters)
			j.swLive.elapsed += out.sw.elapsed
			j.mu.Unlock()
			s.saveCheckpoint(j)
			return nil
		})
	if err != nil && ctx.Err() == nil { // cancellation surfaces in runJob, not as a failure
		return fmt.Errorf("unit %s: %w", pending[k].name, err)
	}
	return nil
}

// saveCheckpoint journals the job as it stands.
func (s *Service) saveCheckpoint(j *Job) {
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	s.journal(j, nil)
}

// journal writes the job's record atomically (temp file + rename), so a
// crash mid-write can never corrupt an existing one. The result so far is
// appended straight into the record's buffer. amend, when non-nil, edits
// the head before it is written: finish journals a state the job does not
// show yet. It returns the record written, nil if none was, and the offset
// of its result (0: none). The caller holds j.journalMu.
func (s *Service) journal(j *Job, amend func(*checkpoint)) (rec []byte, resultAt int) {
	if s.cfg.Dir == "" {
		return nil, 0
	}
	j.mu.Lock()
	ck := checkpoint{
		ID:         j.id,
		Request:    j.req,
		State:      j.state,
		Done:       j.doneCount(),
		Total:      int64(j.done.Total),
		UnitsTotal: j.unitsTotal,
		Error:      j.errMsg,
	}
	if amend != nil {
		amend(&ck)
	}
	var result, db func([]byte) []byte
	if j.req.Kind == KindCharacterize {
		db = j.char.appendJSON
	}
	if len(j.units) > 0 {
		result = func(buf []byte) []byte {
			resultAt = len(buf)
			return appendResult(buf, j.req.Kind, j.units, db)
		}
	}
	blob, err := marshalWithResult(ck, "", result)
	j.mu.Unlock()
	if err != nil {
		s.cfg.Logf("jobs: marshal checkpoint %s: %v", j.id, err)
		return nil, 0
	}
	if err := s.writeFile(s.recordPath(j.id), blob, 0o644); err != nil {
		s.cfg.Logf("jobs: write checkpoint %s: %v", j.id, err)
		return nil, 0
	}
	return blob, resultAt
}

// recordPath is the journal file of job id.
func (s *Service) recordPath(id string) string {
	return filepath.Join(s.cfg.Dir, "job-"+strings.TrimPrefix(id, "j-")+".json")
}
