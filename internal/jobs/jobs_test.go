package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpufi/internal/core"
	"gpufi/internal/fabric"
	"gpufi/internal/syndrome"
)

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", timeout, what)
}

// smallHPC is a fast two-unit HPC request (~0.1s of engine work).
func smallHPC() Request {
	return Request{
		Kind: KindHPC, Seed: 11,
		Apps:       []AppSpec{{Name: "MxM", N: 16}},
		Models:     []string{"bitflip", "bitflip2"},
		Injections: 120,
	}
}

// multiUnitHPC is a four-unit request, long enough to interrupt mid-run.
func multiUnitHPC() Request {
	return Request{
		Kind: KindHPC, Seed: 23,
		Apps:       []AppSpec{{Name: "MxM", N: 16}, {Name: "Quicksort", N: 256}},
		Models:     []string{"bitflip", "bitflip2"},
		Injections: 150,
	}
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestSubmitValidation(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	bad := []struct {
		name string
		req  Request
	}{
		{"unknown kind", Request{Kind: "frobnicate"}},
		{"unknown app", Request{Kind: KindHPC, Apps: []AppSpec{{Name: "Nope"}}}},
		{"bad app size", Request{Kind: KindHPC, Apps: []AppSpec{{Name: "MxM", N: 24}}, Models: []string{"bitflip"}}},
		{"unknown HPC model", Request{Kind: KindHPC, Models: []string{"cosmic-ray"}}},
		{"syndrome model without db", Request{Kind: KindHPC, Models: []string{"syndrome"}}},
		{"unknown network", Request{Kind: KindCNN, Network: "AlexNet"}},
		{"unknown CNN model", Request{Kind: KindCNN, Models: []string{"bitflip2"}}},
		{"tile model without db", Request{Kind: KindCNN, Models: []string{"tile"}}},
		{"unknown opcode", Request{Kind: KindCharacterize, Ops: []string{"HCF"}}},
		{"unknown range", Request{Kind: KindCharacterize, Ranges: []string{"XL"}}},
		{"negative faults", Request{Kind: KindCharacterize, Faults: -5}},
		{"negative t-MxM faults", Request{Kind: KindCharacterize, Faults: 10, TMXMFaults: -1}},
		{"negative HPC injections", Request{Kind: KindHPC, Models: []string{"bitflip"}, Injections: -5}},
		{"negative CNN injections", Request{Kind: KindCNN, Models: []string{"bitflip"}, Injections: -5}},
	}
	for _, tc := range bad {
		if _, err := s.Submit(tc.req); err == nil {
			t.Errorf("%s: Submit accepted %+v", tc.name, tc.req)
		}
	}
	if _, ok := s.Get("j-000001"); ok {
		t.Error("rejected submissions must not register jobs")
	}
}

func TestJobLifecycle(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	st, err := s.Submit(smallHPC())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Total != 240 || st.UnitsTotal != 2 {
		t.Fatalf("unexpected submit status %+v", st)
	}
	waitFor(t, 30*time.Second, "job done", func() bool {
		st, _ = s.Get(st.ID)
		return st.State.Terminal()
	})
	if st.State != StateDone {
		t.Fatalf("job ended %s (error %q), want done", st.State, st.Error)
	}
	if st.Done != st.Total || st.UnitsDone != 2 {
		t.Errorf("finished job reports done=%d/%d units=%d/2", st.Done, st.Total, st.UnitsDone)
	}
	var res Result
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatalf("result is not valid JSON: %v", err)
	}
	if res.Kind != KindHPC || len(res.Units) != 2 {
		t.Fatalf("unexpected result %+v", res)
	}
	var first HPCUnitResult
	if err := json.Unmarshal(res.Units[0], &first); err != nil {
		t.Fatal(err)
	}
	if first.App != "MxM" || first.Model != "bitflip" || first.Tally.Injections != 120 {
		t.Errorf("units are not in plan order: first = %+v", first)
	}
}

// charVariant is one way of running a characterize job: the job's CPU
// budget, and whether its units run in the service's process or go through
// a fabric coordinator to an in-process worker.
type charVariant struct {
	engineWorkers int
	fabric        bool
}

func (v charVariant) String() string {
	if v.fabric {
		return fmt.Sprintf("fabric-%d", v.engineWorkers)
	}
	return fmt.Sprintf("local-%d", v.engineWorkers)
}

var charVariants = []charVariant{{1, false}, {4, false}, {1, true}, {4, true}}

// inFlightWanted is how many units a test holds in flight before it
// interrupts the job: two wherever two can overlap.
func (v charVariant) inFlightWanted() int {
	if v.fabric || v.engineWorkers > 1 {
		return 2
	}
	return 1
}

// holdCompletes is a fleet's transport that holds every completion except
// unit pass's until release is closed, so the units stay leased — in
// flight — for as long as the test wants.
type holdCompletes struct {
	fabric.Transport
	pass    string
	release chan struct{}
}

func (h *holdCompletes) Complete(req fabric.CompleteRequest) (fabric.CompleteReply, error) {
	if req.Unit != h.pass {
		<-h.release
	}
	return h.Transport.Complete(req)
}

// charService starts a service for variant v on dir. With hold, the units
// of its jobs stay in flight once started — all but the plan's first, pass,
// when that is not empty: a local unit waits for the job's cancellation
// before it runs, a fabric worker's completion waits for release. inFlight
// counts the units held so.
func charService(t *testing.T, v charVariant, dir string, hold bool, pass string) (s *Service, inFlight func(id string) int, release func()) {
	t.Helper()
	cfg := Config{Workers: 1, Dir: dir, EngineWorkers: v.engineWorkers, CheckpointEvery: 5 * time.Millisecond}
	release = func() {}
	if v.fabric {
		coord := fabric.NewCoordinator(fabric.CoordinatorConfig{Logf: t.Logf})
		cfg.Fabric = coord
		tr := &holdCompletes{Transport: coord, pass: pass, release: make(chan struct{})}
		release = sync.OnceFunc(func() { close(tr.release) })
		if !hold {
			release()
		}
		ctx, stop := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = fabric.RunWorker(ctx, tr, fabric.WorkerConfig{Parallel: 3, Poll: 2 * time.Millisecond})
		}()
		t.Cleanup(func() { release(); stop(); <-done; coord.Close() })
		inFlight = func(id string) int {
			st, _ := coord.JobStatus(id)
			return st.UnitsLeased
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if hold && !v.fabric {
		var started, held atomic.Int64
		wrapUnits(s, func(u unit) runFunc {
			return func(ctx context.Context, db *syndrome.DB, workers int, progress func(done, total int)) (outcome, error) {
				if started.Add(1) > 1 || pass == "" {
					held.Add(1)
					<-ctx.Done()
				}
				return u.run(ctx, db, workers, progress)
			}
		})
		inFlight = func(string) int { return int(held.Load()) }
	}
	return s, inFlight, release
}

// runFunc is the type of unit.run.
type runFunc = func(ctx context.Context, db *syndrome.DB, workers int, progress func(done, total int)) (outcome, error)

// wrapUnits makes s run every unit it plans through what wrap returns for
// it.
func wrapUnits(s *Service, wrap func(u unit) runFunc) {
	s.compile = func(req Request) (*program, error) {
		prog, err := compile(req)
		if err == nil {
			for i, u := range prog.units {
				prog.units[i].run = wrap(u)
			}
		}
		return prog, err
	}
}

func TestCancelRunning(t *testing.T) {
	long := smallHPC()
	long.Injections = 100000 // far longer than the test will wait
	char := Request{
		Kind: KindCharacterize, Seed: 5,
		Ops: []string{"FADD", "FMUL"}, Ranges: []string{"M"},
		Faults: 300, SkipTMXM: true,
	}
	check := func(t *testing.T, s *Service, dir string, req Request, inFlight func() bool) string {
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, 30*time.Second, "units in flight", func() bool {
			st, _ = s.Get(st.ID)
			return st.State == StateRunning && inFlight()
		})
		if _, err := s.Cancel(st.ID); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 30*time.Second, "cancelled state", func() bool {
			st, _ = s.Get(st.ID)
			return st.State.Terminal()
		})
		if st.State != StateCancelled {
			t.Fatalf("job ended %s, want cancelled", st.State)
		}
		if _, err := s.Cancel(st.ID); err == nil {
			t.Error("cancelling a terminal job must fail")
		}
		// The checkpoint must be intact, valid JSON recording the cancellation.
		blob, err := os.ReadFile(filepath.Join(dir, "job-000001.json"))
		if err != nil {
			t.Fatal(err)
		}
		var ck checkpoint
		if err := json.Unmarshal(blob, &ck); err != nil {
			t.Fatalf("checkpoint corrupt after cancel: %v", err)
		}
		if ck.State != StateCancelled || ck.ID != st.ID {
			t.Errorf("checkpoint records %s/%s, want %s/cancelled", ck.ID, ck.State, st.ID)
		}
		return st.ID
	}
	t.Run("hpc", func(t *testing.T) {
		dir := t.TempDir()
		s := newService(t, Config{Workers: 1, Dir: dir, CheckpointEvery: 5 * time.Millisecond})
		check(t, s, dir, long, func() bool {
			st, _ := s.Get("j-000001")
			return st.Done > 0
		})
	})
	// Characterize jobs, cancelled with every started unit still in flight:
	// the scheduler must drop them all and leave no runner behind (Close, in
	// the cleanup, would hang on one).
	for _, v := range charVariants {
		t.Run(v.String(), func(t *testing.T) {
			dir := t.TempDir()
			s, inFlight, release := charService(t, v, dir, true, "")
			id := check(t, s, dir, char, func() bool { return inFlight("j-000001") >= v.inFlightWanted() })
			release()
			if st, _ := s.Get(id); st.UnitsDone != 0 {
				t.Errorf("%d units committed, all were held in flight", st.UnitsDone)
			}
			if v.fabric {
				if _, ok := s.cfg.Fabric.JobStatus(id); ok {
					t.Error("cancelled job is still registered with the fabric")
				}
			}
		})
	}
}

func TestCancelQueued(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	blocker := smallHPC()
	blocker.Injections = 100000
	if _, err := s.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(smallHPC())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("second job is %s, want queued behind the blocker", st.State)
	}
	st, err = s.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("queued job cancel left state %s", st.State)
	}
}

// TestTerminalStateDurableBeforeVisible holds the journal write of each
// kind of terminal transition open and checks that, until it returns,
// Status still reports the job non-terminal: a client must never see a
// finished job whose journal entry would resurrect it after a crash.
func TestTerminalStateDurableBeforeVisible(t *testing.T) {
	long := smallHPC()
	long.Injections = 100000
	noDB := smallHPC()
	noDB.Models, noDB.DBPath = []string{"syndrome"}, filepath.Join(t.TempDir(), "missing.json")
	cases := []struct {
		name   string
		req    Request
		behind bool // submit behind a long-running blocker, so the job stays queued
		cancel bool
		want   State
	}{
		{name: "done", req: smallHPC(), want: StateDone},
		{name: "failed", req: noDB, want: StateFailed},
		{name: "cancel-running", req: long, cancel: true, want: StateCancelled},
		{name: "cancel-queued", req: smallHPC(), behind: true, cancel: true, want: StateCancelled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := newService(t, Config{Workers: 1, Dir: dir, CheckpointEvery: 5 * time.Millisecond})
			id := "j-000001" // the job under test
			if tc.behind {
				id = "j-000002"
			}
			held, release := make(chan struct{}), make(chan struct{})
			s.writeFile = func(path string, data []byte, perm os.FileMode) error {
				var ck checkpoint
				if json.Unmarshal(data, &ck) == nil && ck.ID == id && ck.State.Terminal() {
					close(held)
					<-release
				}
				return syndrome.WriteFileAtomic(path, data, perm)
			}
			if tc.behind {
				if _, err := s.Submit(long); err != nil {
					t.Fatal(err)
				}
			}
			st, err := s.Submit(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if st.ID != id {
				t.Fatalf("job got id %s, predicted %s", st.ID, id)
			}
			if tc.cancel {
				if !tc.behind {
					waitFor(t, 30*time.Second, "progress", func() bool {
						st, _ = s.Get(id)
						return st.State == StateRunning && st.Done > 0
					})
				}
				go s.Cancel(id) // blocks in the held journal write when the job is queued
			}
			<-held
			for i := 0; i < 20; i++ {
				if st, _ := s.Get(id); st.State.Terminal() {
					t.Fatalf("status reports %s while its journal write is still in flight", st.State)
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			waitFor(t, 30*time.Second, "terminal state", func() bool {
				st, _ = s.Get(id)
				return st.State.Terminal()
			})
			if st.State != tc.want {
				t.Fatalf("job ended %s (error %q), want %s", st.State, st.Error, tc.want)
			}
			blob, err := os.ReadFile(filepath.Join(dir, "job-"+id[2:]+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var ck checkpoint
			if err := json.Unmarshal(blob, &ck); err != nil || ck.State != tc.want {
				t.Fatalf("journal records state %q (err %v), want %s", ck.State, err, tc.want)
			}
		})
	}
}

// TestJournalKeepsCancelAfterSubmit: a job is listed before Submit has
// written its first (queued) journal record, so a client can cancel it in
// that window. The cancellation must be the record that stays: holding
// Submit's write open while the job is cancelled, the file on disk and a
// restarted service must both report the job cancelled, not queued to run.
func TestJournalKeepsCancelAfterSubmit(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The blocker's units wait for cancellation, so it holds the only
	// worker and the job under test stays queued.
	wrapUnits(s, func(u unit) runFunc {
		return func(ctx context.Context, db *syndrome.DB, workers int, progress func(done, total int)) (outcome, error) {
			<-ctx.Done()
			return u.run(ctx, db, workers, progress)
		}
	})
	const id = "j-000002"
	held, release := make(chan struct{}), make(chan struct{})
	hold := sync.OnceFunc(func() { close(held); <-release })
	s.writeFile = func(path string, data []byte, perm os.FileMode) error {
		var ck checkpoint
		if json.Unmarshal(data, &ck) == nil && ck.ID == id && ck.State == StateQueued {
			hold()
		}
		return syndrome.WriteFileAtomic(path, data, perm)
	}
	if _, err := s.Submit(smallHPC()); err != nil {
		t.Fatal(err)
	}
	submitted := make(chan error, 1)
	go func() { _, err := s.Submit(smallHPC()); submitted <- err }()
	<-held
	cancelled := make(chan error, 1)
	go func() { _, err := s.Cancel(id); cancelled <- err }()
	// Give the cancellation the time to reach the journal if it can get
	// there before the held record.
	select {
	case err := <-cancelled:
		cancelled <- err
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	if err := <-cancelled; err != nil {
		t.Fatal(err)
	}

	blob, err := os.ReadFile(filepath.Join(dir, "job-000002.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ck checkpoint
	if err := json.Unmarshal(blob, &ck); err != nil || ck.State != StateCancelled {
		t.Fatalf("journal records state %q (err %v), want cancelled", ck.State, err)
	}
	s.Close()
	s2 := newService(t, Config{Workers: 1, Dir: dir})
	if st, ok := s2.Get(id); !ok || st.State != StateCancelled {
		t.Fatalf("restarted service reports %s (found %v), want cancelled", st.State, ok)
	}
}

// runToCompletion submits req on a fresh single-worker service and returns
// the finished job's result bytes.
func runToCompletion(t *testing.T, req Request) []byte {
	t.Helper()
	s := newService(t, Config{Workers: 1})
	st, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 120*time.Second, "uninterrupted job", func() bool {
		st, _ = s.Get(st.ID)
		return st.State.Terminal()
	})
	if st.State != StateDone {
		t.Fatalf("job ended %s (error %q)", st.State, st.Error)
	}
	return st.Result
}

// interruptAndResume submits req, shuts the service down once at least one
// unit has checkpointed, restarts on the same journal directory, and
// returns the resumed job's final result bytes.
func interruptAndResume(t *testing.T, req Request) []byte {
	t.Helper()
	return interruptEditResume(t, req, nil)
}

// interruptEditResume is interruptAndResume with edit, when non-nil,
// applied to the job's journal file while the service is down.
func interruptEditResume(t *testing.T, req Request, edit func(journal []byte) []byte) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, Dir: dir, CheckpointEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(req)
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	waitFor(t, 120*time.Second, "first unit checkpoint", func() bool {
		st, _ = s.Get(st.ID)
		return st.UnitsDone >= 1
	})
	s.Close() // interrupt: unfinished work re-journals as queued
	path := filepath.Join(dir, "job-"+st.ID[2:]+".json")
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if held := recordUnits(t, journal); held < 1 {
		t.Fatalf("interrupted job's record holds %d units", held)
	}
	if edit != nil {
		journal = edit(journal)
		if err := os.WriteFile(path, journal, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newService(t, Config{Workers: 1, Dir: dir})
	st2, ok := s2.Get(st.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", st.ID)
	}
	if held := recordUnits(t, journal); st2.UnitsDone < held {
		t.Fatalf("resumed job forgot the %d units its record holds: %+v", held, st2)
	}
	waitFor(t, 120*time.Second, "resumed job", func() bool {
		st2, _ = s2.Get(st.ID)
		return st2.State.Terminal()
	})
	if st2.State != StateDone {
		t.Fatalf("resumed job ended %s (error %q)", st2.State, st2.Error)
	}
	return st2.Result
}

// recordUnits is how many unit records a journal record's result holds.
func recordUnits(t *testing.T, record []byte) int {
	t.Helper()
	var rec struct {
		Result struct {
			Units []json.RawMessage `json:"units"`
		} `json:"result"`
	}
	if err := json.Unmarshal(record, &rec); err != nil {
		t.Fatal(err)
	}
	return len(rec.Result.Units)
}

func TestResumeBitIdenticalHPC(t *testing.T) {
	req := multiUnitHPC()
	want := runToCompletion(t, req)
	got := interruptAndResume(t, req)
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed result differs from uninterrupted run:\nuninterrupted: %s\nresumed:       %s", want, got)
	}
}

// TestResumeJournalWithNoFastPath: a journal written when requests still
// carried no_fast_path (the switch that forced the reference interpreter)
// loads, and its job resumes to the result an uninterrupted run gives.
func TestResumeJournalWithNoFastPath(t *testing.T) {
	req := multiUnitHPC()
	want := runToCompletion(t, req)
	got := interruptEditResume(t, req, func(journal []byte) []byte {
		var ck map[string]json.RawMessage
		var r map[string]any
		if err := json.Unmarshal(journal, &ck); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(ck["request"], &r); err != nil {
			t.Fatal(err)
		}
		r["no_fast_path"] = true
		var err error
		if ck["request"], err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
		if journal, err = json.Marshal(ck); err != nil {
			t.Fatal(err)
		}
		return journal
	})
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed result differs from uninterrupted run:\nuninterrupted: %s\nresumed:       %s", want, got)
	}
}

// TestResumeBitIdenticalCharacterize: a characterize job's result and its
// final journal file are the same bytes for every CPU budget, local or over
// the fabric, run straight through or shut down with units in flight — two
// wherever two can overlap — and resumed by a second service.
func TestResumeBitIdenticalCharacterize(t *testing.T) {
	req := Request{
		Kind: KindCharacterize, Seed: 5,
		Ops: []string{"FADD", "FMUL"}, Ranges: []string{"M"},
		Faults: 300, SkipTMXM: true,
	}
	prog, err := compile(req)
	if err != nil {
		t.Fatal(err)
	}
	first := prog.units[0].name
	finish := func(t *testing.T, s *Service, dir, id string) (result, journal []byte) {
		var st Status
		waitFor(t, 120*time.Second, "job", func() bool {
			st, _ = s.Get(id)
			return st.State.Terminal()
		})
		if st.State != StateDone {
			t.Fatalf("job ended %s (error %q)", st.State, st.Error)
		}
		journal, err := os.ReadFile(filepath.Join(dir, "job-"+id[2:]+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return st.Result, journal
	}
	run := func(t *testing.T, v charVariant, interrupt bool) (result, journal []byte) {
		dir := t.TempDir()
		s, inFlight, release := charService(t, v, dir, interrupt, first)
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if !interrupt {
			return finish(t, s, dir, st.ID)
		}
		waitFor(t, 120*time.Second, "first unit checkpoint and units in flight", func() bool {
			st, _ = s.Get(st.ID)
			return st.UnitsDone >= 1 && inFlight(st.ID) >= v.inFlightWanted()
		})
		s.Close() // interrupt: unfinished work re-journals as queued
		release()
		if st, _ = s.Get(st.ID); st.UnitsDone != 1 || st.State != StateQueued {
			t.Fatalf("interrupted job is %s with %d units, want queued with the one unit that was let through", st.State, st.UnitsDone)
		}
		s2, _, _ := charService(t, v, dir, false, "")
		if st2, ok := s2.Get(st.ID); !ok || st2.UnitsDone != 1 {
			t.Fatalf("resumed job forgot its completed unit: %+v (found %v)", st2, ok)
		}
		return finish(t, s2, dir, st.ID)
	}

	wantResult, wantJournal := run(t, charVariants[0], false)
	var res Result
	if err := json.Unmarshal(wantResult, &res); err != nil {
		t.Fatal(err)
	}
	if res.DB == nil || len(res.DB.Entries) == 0 {
		t.Fatal("characterize result carries no syndrome DB")
	}
	for _, v := range charVariants {
		for _, interrupt := range []bool{false, true} {
			name := v.String()
			if interrupt {
				name += "-resumed"
			}
			t.Run(name, func(t *testing.T) {
				result, journal := run(t, v, interrupt)
				if !bytes.Equal(result, wantResult) {
					t.Errorf("result (%d bytes) differs from the uninterrupted local-1 run's (%d bytes)", len(result), len(wantResult))
				}
				if !bytes.Equal(journal, wantJournal) {
					t.Errorf("final journal (%d bytes) differs from the uninterrupted local-1 run's (%d bytes)", len(journal), len(wantJournal))
				}
			})
		}
	}
}

// TestCharacterizeStatusTelemetry: a characterize job's status must carry
// the aggregated engine counters (cycles simulated/skipped, dead-pruned
// faults, derived ratios) once units complete — the HTTP payload used to
// expose unit counts only.
func TestCharacterizeStatusTelemetry(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	st, err := s.Submit(Request{
		Kind: KindCharacterize, Seed: 9,
		Ops: []string{"FADD"}, Ranges: []string{"M"},
		Faults: 300, SkipTMXM: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 120*time.Second, "characterize job", func() bool {
		st, _ = s.Get(st.ID)
		return st.State.Terminal()
	})
	if st.State != StateDone {
		t.Fatalf("job ended %s (error %q)", st.State, st.Error)
	}
	if st.RTL == nil {
		t.Fatal("characterize status carries no RTL telemetry")
	}
	if st.RTL.Injections != int(st.Total) {
		t.Errorf("telemetry injections = %d, want %d", st.RTL.Injections, st.Total)
	}
	if st.RTL.SimCycles == 0 || st.RTL.SkippedCycles == 0 {
		t.Errorf("telemetry cycles not populated: %+v", st.RTL)
	}
	if st.RTL.PrunedFaults == 0 || st.RTL.PruneRate <= 0 {
		t.Errorf("telemetry records no dead-pruned faults: %+v", st.RTL)
	}
	if st.RTL.ReplaySpeedup <= 1 {
		t.Errorf("replay speedup %.2f, want > 1", st.RTL.ReplaySpeedup)
	}
	if st.SW != nil {
		t.Errorf("characterize status carries a software telemetry block: %+v", st.SW)
	}
}

// TestSWStatusTelemetry: hpc and cnn job statuses must carry the
// aggregated software-campaign instruction counters and the derived
// fast-forward speedup, mirroring the characterize jobs' rtl block.
func TestSWStatusTelemetry(t *testing.T) {
	s := newService(t, Config{Workers: 1})
	st, err := s.Submit(smallHPC())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 120*time.Second, "hpc job", func() bool {
		st, _ = s.Get(st.ID)
		return st.State.Terminal()
	})
	if st.State != StateDone {
		t.Fatalf("job ended %s (error %q)", st.State, st.Error)
	}
	if st.SW == nil {
		t.Fatal("hpc status carries no software telemetry")
	}
	if st.SW.Injections != int(st.Total) {
		t.Errorf("telemetry injections = %d, want %d", st.SW.Injections, st.Total)
	}
	if st.SW.SimInstrs == 0 {
		t.Errorf("telemetry instruction counters not populated: %+v", st.SW)
	}
	if st.SW.SkippedInstrs == 0 {
		t.Errorf("fast-forward skipped no instructions: %+v", st.SW)
	}
	if st.SW.FFSpeedup <= 1 {
		t.Errorf("ff speedup %.2f, want > 1", st.SW.FFSpeedup)
	}
	if st.RTL != nil {
		t.Errorf("hpc status carries an RTL telemetry block: %+v", st.RTL)
	}
}

func TestWorkerPoolSaturation(t *testing.T) {
	s := newService(t, Config{Workers: 2})
	const n = 6
	req := smallHPC()
	req.Models = []string{"bitflip"}
	req.Injections = 400
	var ids []string
	for i := 0; i < n; i++ {
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	maxRunning := 0
	waitFor(t, 120*time.Second, "all jobs done", func() bool {
		running, terminal := 0, 0
		// Sampled newest first, one job at a time: workers take jobs in
		// submission order, so a job seen running after a newer one was
		// seen running held its worker at that earlier instant too, and
		// every job counted was held at once. Oldest first (List's order)
		// over-counts when an old job finishes and a queued one starts
		// between two samples.
		for i := n - 1; i >= 0; i-- {
			st, _ := s.Get(ids[i])
			switch {
			case st.State == StateRunning:
				running++
			case st.State.Terminal():
				terminal++
			}
		}
		if running > maxRunning {
			maxRunning = running
		}
		return terminal == n
	})
	if maxRunning > 2 {
		t.Fatalf("pool ran %d jobs at once with Workers=2", maxRunning)
	}
	if maxRunning < 2 {
		t.Errorf("pool never saturated: max concurrent running = %d", maxRunning)
	}
	for _, st := range s.List() {
		if st.State != StateDone {
			t.Errorf("job %s ended %s (error %q)", st.ID, st.State, st.Error)
		}
	}
}

func TestQueueFull(t *testing.T) {
	s := newService(t, Config{Workers: 1, QueueDepth: 1})
	blocker := smallHPC()
	blocker.Injections = 100000
	if _, err := s.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	// The single worker may or may not have dequeued the blocker yet; fill
	// whatever queue space remains, then expect errQueueFull.
	var err error
	for i := 0; i < 3; i++ {
		if _, err = s.Submit(smallHPC()); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("queue of depth 1 accepted 4 submissions")
	}
}

func TestCorruptCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-000001.json"), []byte("{\"id\": \"j-0"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Workers: 1, Dir: dir}); err == nil {
		t.Fatal("New accepted a truncated checkpoint journal")
	}
}

func TestDeriveSeedStable(t *testing.T) {
	a := deriveSeed(42, "MxM/bitflip")
	if b := deriveSeed(42, "MxM/bitflip"); a != b {
		t.Fatal("deriveSeed is not deterministic")
	}
	if deriveSeed(42, "MxM/bitflip2") == a || deriveSeed(43, "MxM/bitflip") == a {
		t.Fatal("deriveSeed ignores its inputs")
	}
}

// journalledChar is a characterize job over two opcodes and the six t-MxM
// units, so both sections of the record's db fill up.
func journalledChar() Request {
	return Request{
		Kind: KindCharacterize, Seed: 5,
		Ops: []string{"FADD", "FSIN"}, Ranges: []string{"M"},
		Faults: 300, TMXMFaults: 150,
	}
}

// TestJournalBytesMatchWholeDBEncoding records every journal write of a
// characterize job: each carries a result only once a unit has committed,
// its units extend the previous record's, and its db is byte for byte
// json.Marshal of the database built from exactly those units. The done
// record holds the database and each unit record once, after the status
// head alone; an interrupted and resumed run of the same job must leave
// the very same journal file behind.
func TestJournalBytesMatchWholeDBEncoding(t *testing.T) {
	prog, err := compile(journalledChar())
	if err != nil {
		t.Fatal(err)
	}
	built := syndrome.New()
	wholeDB := [][]byte{nil} // by the number of units in
	for _, u := range prog.units {
		res, err := core.RunUnit(context.Background(), u.char, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Micro != nil {
			built.AddMicro(res.Micro)
		} else {
			built.AddTMXM(res.TMXM)
		}
		blob, err := json.Marshal(built)
		if err != nil {
			t.Fatal(err)
		}
		wholeDB = append(wholeDB, blob)
	}

	dir := t.TempDir()
	var (
		mu    sync.Mutex
		units []json.RawMessage // the previous record's
		final struct {
			Result struct {
				Units []json.RawMessage `json:"units"`
				DB    json.RawMessage   `json:"db"`
			} `json:"result"`
		}
		writes int
	)
	s := newService(t, Config{Workers: 1, Dir: dir, CheckpointEvery: time.Hour})
	s.writeFile = func(path string, data []byte, perm os.FileMode) error {
		mu.Lock()
		defer mu.Unlock()
		writes++
		rec := final
		rec.Result.Units, rec.Result.DB = nil, nil
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Errorf("journal write does not decode: %v", err)
		}
		n := len(rec.Result.Units)
		if (n == 0) != !bytes.Contains(data, []byte(`"result":`)) {
			t.Errorf("journal write with %d units: result present %v", n, n > 0)
		}
		for i, raw := range units {
			if i >= n || !bytes.Equal(rec.Result.Units[i], raw) {
				t.Errorf("journal write with %d units does not extend the previous one's %d", n, len(units))
				break
			}
		}
		if !bytes.Equal(rec.Result.DB, wholeDB[n]) {
			t.Errorf("journal write with %d units: db (%d bytes) differs from the whole-database encoding of those units (%d bytes)",
				n, len(rec.Result.DB), len(wholeDB[n]))
		}
		units, final = rec.Result.Units, rec
		return syndrome.WriteFileAtomic(path, data, perm)
	}
	st, err := s.Submit(journalledChar())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 120*time.Second, "job", func() bool {
		st, _ = s.Get(st.ID)
		return st.State.Terminal()
	})
	if st.State != StateDone {
		t.Fatalf("job ended %s (error %q)", st.State, st.Error)
	}
	mu.Lock()
	if want := 1 + st.UnitsTotal + 1; writes != want { // submission, each unit, finish
		t.Errorf("%d journal writes, want %d", writes, want)
	}
	mu.Unlock()
	name := "job-" + st.ID[2:] + ".json"
	uninterrupted, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}

	// The done record is the status head and the result: the database and
	// every unit record once.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(uninterrupted, &fields); err != nil {
		t.Fatal(err)
	}
	for key := range fields {
		switch key {
		case "id", "request", "state", "done", "total", "units_total", "result":
		default:
			t.Errorf("done record carries %q beside its result", key)
		}
	}
	if len(final.Result.Units) != st.UnitsTotal {
		t.Errorf("done record holds %d units, want %d", len(final.Result.Units), st.UnitsTotal)
	}
	for i, part := range append([]json.RawMessage{final.Result.DB}, final.Result.Units...) {
		if n := bytes.Count(uninterrupted, part); n != 1 {
			t.Errorf("done record holds part %d (%d bytes) %d times, want once", i, len(part), n)
		}
	}
	if !bytes.HasSuffix(uninterrupted, append(append([]byte(`"result":`), st.Result...), '}')) {
		t.Error("done record does not end with the result the job serves")
	}

	dir2 := t.TempDir()
	s1, err := New(Config{Workers: 1, Dir: dir2, CheckpointEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = s1.Submit(journalledChar()); err != nil {
		s1.Close()
		t.Fatal(err)
	}
	waitFor(t, 120*time.Second, "a few units", func() bool {
		st, _ = s1.Get(st.ID)
		return st.UnitsDone >= 3
	})
	s1.Close()
	s2 := newService(t, Config{Workers: 1, Dir: dir2, CheckpointEvery: time.Hour})
	waitFor(t, 120*time.Second, "resumed job", func() bool {
		st, _ = s2.Get(st.ID)
		return st.State.Terminal()
	})
	resumed, err := os.ReadFile(filepath.Join(dir2, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, uninterrupted) {
		t.Errorf("journal of the resumed job (%d bytes) differs from the uninterrupted job's (%d bytes)", len(resumed), len(uninterrupted))
	}
}

// TestCharDBRestoreKeepsEncodingBytes interrupts the database itself: a
// charDB restored from its own journal form and fed the rest of the plan
// must, after every unit, journal what the uninterrupted one journals —
// and that is the whole-database encoding of what it holds.
func TestCharDBRestoreKeepsEncodingBytes(t *testing.T) {
	prog, err := compile(journalledChar())
	if err != nil {
		t.Fatal(err)
	}
	straight, resumed := newCharDB(), newCharDB()
	if straight.journalForm() != nil {
		t.Error("an empty database has a journal form")
	}
	for i, u := range prog.units {
		cu := u.char
		res, err := core.RunUnit(context.Background(), cu, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 || i == len(prog.units)-2 { // inside the micro units, inside the t-MxM ones
			if resumed, err = restoreCharDB(resumed.journalForm()); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []*charDB{&straight, &resumed} {
			if err := c.ingest(res); err != nil {
				t.Fatal(err)
			}
		}
		want, err := json.Marshal(straight.db)
		if err != nil {
			t.Fatal(err)
		}
		if got := straight.journalForm(); !bytes.Equal(got, want) {
			t.Fatalf("after unit %d (%s): journal form differs from the whole-database encoding", i, cu.Name())
		}
		if got := resumed.journalForm(); !bytes.Equal(got, want) {
			t.Fatalf("after unit %d (%s): restored database journals differently from the uninterrupted one", i, cu.Name())
		}
	}
}

// TestCheckpointMarshalMatchesEncodingJSON: every journal record of a
// characterize and an hpc job — the submission record, one per unit and
// the final one — is byte for byte json.Marshal of the checkpoint it
// decodes to: the result appended after the head is where encoding/json
// would put it, compact.
func TestCheckpointMarshalMatchesEncodingJSON(t *testing.T) {
	hpc := multiUnitHPC()
	hpc.Injections = 20
	for _, req := range []Request{journalledChar(), hpc} {
		dir := t.TempDir()
		var mu sync.Mutex
		var records [][]byte
		s := newService(t, Config{Workers: 1, Dir: dir, CheckpointEvery: time.Hour})
		s.writeFile = func(path string, data []byte, perm os.FileMode) error {
			mu.Lock()
			records = append(records, data)
			mu.Unlock()
			return syndrome.WriteFileAtomic(path, data, perm)
		}
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, 120*time.Second, "job", func() bool {
			st, _ = s.Get(st.ID)
			return st.State.Terminal()
		})
		if st.State != StateDone {
			t.Fatalf("%s job ended %s (error %q)", req.Kind, st.State, st.Error)
		}
		s.Close()
		mu.Lock()
		for i, rec := range records {
			var ck checkpoint
			if err := json.Unmarshal(rec, &ck); err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(ck)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec, want) {
				t.Fatalf("%s record %d:\n%s\njson.Marshal gives\n%s", req.Kind, i, rec, want)
			}
		}
		mu.Unlock()
	}
}

// preResultRecord is a journal record in the form written before a
// record's result was its only copy of the units and the database: the
// unit records keyed by name, the database beside them, and a result only
// once the job was done.
type preResultRecord struct {
	ID         string                     `json:"id"`
	Request    Request                    `json:"request"`
	State      State                      `json:"state"`
	Done       int64                      `json:"done"`
	Total      int64                      `json:"total"`
	UnitsTotal int                        `json:"units_total"`
	Error      string                     `json:"error,omitempty"`
	Completed  map[string]json.RawMessage `json:"completed,omitempty"`
	DB         json.RawMessage            `json:"db,omitempty"`
	Result     json.RawMessage            `json:"result,omitempty"`
}

// TestPreResultRecordsLoad: records in that older form still load. A done
// one is served byte for byte after a restart, with the units its result
// holds; a running one, whose units a restarted service does not read,
// runs again from its first unit to the uninterrupted result.
func TestPreResultRecordsLoad(t *testing.T) {
	req := Request{
		Kind: KindCharacterize, Seed: 7,
		Ops: []string{"FADD", "FMUL"}, Ranges: []string{"M"},
		Faults: 200, TMXMFaults: 40,
	}
	prog, err := compile(req)
	if err != nil {
		t.Fatal(err)
	}
	want := runToCompletion(t, req)
	// rewrite turns a job's record into the older form: done with the
	// uninterrupted result, or queued with the units the record holds.
	rewrite := func(record []byte, done bool) []byte {
		var ck checkpoint
		var res struct {
			Units []json.RawMessage `json:"units"`
			DB    json.RawMessage   `json:"db"`
		}
		if err := json.Unmarshal(record, &ck); err != nil {
			t.Fatal(err)
		}
		old := preResultRecord{
			ID: ck.ID, Request: ck.Request, State: StateQueued, Done: ck.Done, Total: ck.Total,
			UnitsTotal: ck.UnitsTotal, Completed: make(map[string]json.RawMessage),
		}
		if done {
			old.State, old.Done, old.Result, ck.Result = StateDone, ck.Total, want, want
		}
		if err := json.Unmarshal(ck.Result, &res); err != nil {
			t.Fatal(err)
		}
		for i, raw := range res.Units {
			old.Completed[prog.units[i].name] = raw
		}
		old.DB = res.DB
		blob, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	t.Run("done", func(t *testing.T) {
		got := interruptEditResume(t, req, func(record []byte) []byte { return rewrite(record, true) })
		if !bytes.Equal(got, want) {
			t.Fatalf("old done record serves %d bytes, its result is %d", len(got), len(want))
		}
	})
	t.Run("running", func(t *testing.T) {
		got := interruptEditResume(t, req, func(record []byte) []byte { return rewrite(record, false) })
		if !bytes.Equal(got, want) {
			t.Fatalf("job resumed from an old running record gives %d result bytes, the uninterrupted run %d", len(got), len(want))
		}
	})
}

// TestRecordLongerThanPlanFailsJob: a record holding more units than its
// job plans fails that job, naming the record, instead of resuming it.
func TestRecordLongerThanPlanFailsJob(t *testing.T) {
	dir := t.TempDir()
	req := smallHPC() // two units
	blob, err := json.Marshal(checkpoint{
		ID: "j-000001", Request: req, State: StateRunning, Total: 240, UnitsTotal: 2,
		Result: resultJSON(KindHPC, []json.RawMessage{[]byte(`{}`), []byte(`{}`), []byte(`{}`)}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-000001.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newService(t, Config{Workers: 1, Dir: dir})
	var st Status
	waitFor(t, 30*time.Second, "job", func() bool {
		st, _ = s.Get("j-000001")
		return st.State.Terminal()
	})
	if st.State != StateFailed || !strings.Contains(st.Error, "job-000001.json") {
		t.Fatalf("job ended %s (error %q), want failed naming its record", st.State, st.Error)
	}
}
