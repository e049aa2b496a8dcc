package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gpufi"
	"gpufi/internal/core"
	"gpufi/internal/fabric"
	"gpufi/internal/jobs"
)

// server is the serve_fabric system under test: a job service journalling
// to disk, a fabric coordinator behind HTTP, and e.workers in-process
// fabric workers leasing units over that HTTP API.
type server struct {
	dir    string
	svc    *jobs.Service
	coord  *fabric.Coordinator
	http   *httptest.Server
	stop   context.CancelFunc
	wg     sync.WaitGroup
	client *http.Client
}

func startServer(e *env) (*server, error) {
	dir, err := os.MkdirTemp(e.tmp, "journal-")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, client: &http.Client{}}
	s.coord = fabric.NewCoordinator(fabric.CoordinatorConfig{})
	s.svc, err = jobs.New(jobs.Config{Dir: dir, Workers: 1, EngineWorkers: 1, Fabric: s.coord})
	if err != nil {
		s.coord.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", s.svc.Handler())
	mux.Handle("/fabric/v1/", s.coord.Handler())
	s.http = httptest.NewServer(mux)
	ctx, cancel := context.WithCancel(e.ctx)
	s.stop = cancel
	for w := 0; w < e.workers; w++ {
		s.wg.Add(1)
		go func(w int) {
			defer s.wg.Done()
			// RunWorker returns only once ctx ends.
			_ = fabric.RunWorker(ctx, fabric.NewHTTPTransport(s.http.URL), fabric.WorkerConfig{
				Name: fmt.Sprintf("bench-%d", w), EngineWorkers: 1, Poll: 5 * time.Millisecond,
			})
		}(w)
	}
	return s, nil
}

func (s *server) close() {
	s.stop()
	s.wg.Wait()
	s.svc.Close()
	s.coord.Close()
	s.client.CloseIdleConnections()
	s.http.Close()
	os.RemoveAll(s.dir)
}

// jobStats is what the client sees of the service over a traced pass.
type jobStats struct {
	submitMS, statusMS []float64
	reLeased, deduped  float64
	unitsCompleted     float64
	journalBytes       float64
	overheadRatio      float64
	encodeUS, decodeUS float64
	resultBytes        []float64
	idleLeaseUS        float64
}

func (j *jobStats) fill(l ledger) {
	l["jobs.submit_ms_p50"] = median(j.submitMS)
	l["jobs.status_ms_p50"] = median(j.statusMS)
	l["jobs.journal_bytes"] = j.journalBytes
	l["jobs.overhead_ratio"] = j.overheadRatio
	l["fabric.codec_encode_us"] = j.encodeUS
	l["fabric.codec_decode_us"] = j.decodeUS
	l["fabric.result_bytes_p50"] = median(j.resultBytes)
	l["fabric.idle_lease_rtt_us"] = j.idleLeaseUS
	l["fabric.units_completed"] = j.unitsCompleted
	l["fabric.re_leased"] = j.reLeased
	l["fabric.deduped"] = j.deduped
}

// jobPass is one serve_fabric pass: POST a characterize job, follow its
// event stream to a terminal state, fetch the result.
func (s *server) jobPass(e *env, sh shape, seed uint64, tr *tracer, col *collector, out *passOut) error {
	req := jobs.Request{
		Kind: jobs.KindCharacterize, Seed: seed, Faults: sh.rtl,
		NoPrune: e.ref, NoCollapse: e.ref, NoBitParallel: e.ref,
	}
	for _, op := range sh.ops {
		req.Ops = append(req.Ops, op.String())
	}
	req.SkipTMXM = sh.skipTMXM
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	out.ops++

	id := tr.begin("jobs.submit")
	t0 := time.Now()
	var st jobs.Status
	err = s.call(e.ctx, http.MethodPost, "/jobs", body, http.StatusCreated, &st)
	submit := time.Since(t0)
	tr.end(id, nil)
	if err != nil {
		return err
	}

	id = tr.begin("jobs.await")
	reLeased, deduped, err := s.follow(e.ctx, st.ID)
	tr.end(id, map[string]float64{"re_leased": reLeased, "deduped": deduped})
	if err != nil {
		return err
	}

	id = tr.begin("jobs.status")
	t0 = time.Now()
	err = s.call(e.ctx, http.MethodGet, "/jobs/"+st.ID, nil, http.StatusOK, &st)
	status := time.Since(t0)
	tr.end(id, nil)
	if err != nil {
		return err
	}
	if st.State != jobs.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if col != nil && col.jobs != nil {
		col.jobs.submitMS = append(col.jobs.submitMS, submit.Seconds()*1e3)
		col.jobs.statusMS = append(col.jobs.statusMS, status.Seconds()*1e3)
		col.jobs.reLeased += reLeased
		col.jobs.deduped += deduped
	}
	out.faults += int(st.Total)
	out.jobResult = st.Result
	return nil
}

// call makes one JSON request against the service.
func (s *server) call(ctx context.Context, method, path string, body []byte, want int, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.http.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(blob))
	}
	return json.Unmarshal(blob, into)
}

// follow reads /jobs/{id}/events until the job is terminal and returns
// the highest fabric re-lease and dedup counters the stream showed.
func (s *server) follow(ctx context.Context, id string) (reLeased, deduped float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.http.URL+"/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 64<<20) // the final event embeds the whole syndrome DB
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev struct {
			State  jobs.State        `json:"state"`
			Fabric *fabric.JobStatus `json:"fabric"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return 0, 0, fmt.Errorf("events of %s: %w", id, err)
		}
		if ev.Fabric != nil {
			reLeased = max(reLeased, float64(ev.Fabric.ReLeased))
			deduped = max(deduped, float64(ev.Fabric.Deduped))
		}
		if ev.State.Terminal() {
			return reLeased, deduped, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	return 0, 0, fmt.Errorf("events of %s ended before the job did", id)
}

// addJobResult digests a finished characterize job exactly as addRTL
// digests an in-process characterisation, so the two are comparable.
func (out *passOut) addJobResult(raw json.RawMessage) error {
	var res jobs.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("job result: %w", err)
	}
	if res.DB == nil {
		return fmt.Errorf("job result carries no syndrome database")
	}
	var tel core.Telemetry
	for _, blob := range res.Units {
		var u jobs.CharUnitResult
		if err := json.Unmarshal(blob, &u); err != nil {
			return fmt.Errorf("job unit result: %w", err)
		}
		out.stats.Units = append(out.stats.Units, unitStat{
			Unit: u.Unit, Seed: u.Seed, Tally: u.Tally, Cycles: u.SimCycles + u.SkippedCycles,
		})
		tel.Merge(core.Telemetry{
			Injections: u.Tally.Injections, SimCycles: u.SimCycles, SkippedCycles: u.SkippedCycles,
			PrunedFaults: u.PrunedFaults, CollapsedFaults: u.CollapsedFaults,
			VectorFaults: u.VectorFaults, Marches: u.Marches,
		})
	}
	if tel.Injections != out.faults {
		return fmt.Errorf("job reported %d faults done, its units tally %d", out.faults, tel.Injections)
	}
	out.addRTLCounters(tel)
	out.db = res.DB
	return nil
}

// probeServe fills the serve_fabric ledger rows that are not read off the
// job stream: the in-process reference the job wall is held against, the
// unit-result codec, an idle lease round-trip, and the journal's size.
func (s *server) probeServe(e *env, sh shape, seed uint64, jobWall time.Duration, jobDigest string, tr *tracer, js *jobStats) error {
	id := tr.begin("core.characterize_reference")
	t0 := time.Now()
	char, err := gpufi.CharacterizeCtx(e.ctx, sh.rtlConfig(e, seed))
	ref := time.Since(t0)
	tr.end(id, nil)
	if err != nil {
		return err
	}
	refOut := &passOut{exact: map[string]float64{}}
	refOut.addRTL(char)
	if err := refOut.finish(); err != nil {
		return err
	}
	if d := refOut.stats.digest(); d != jobDigest {
		return fmt.Errorf("job digest %s differs from in-process characterisation %s", jobDigest, d)
	}
	js.overheadRatio = jobWall.Seconds() / ref.Seconds()

	id = tr.begin("fabric.codec_probe")
	var encSecs, decSecs float64
	n := 0
	add := func(res *core.UnitResult) error {
		var blob []byte
		var err error
		encSecs += timeIt(func() { blob, err = fabric.EncodeUnitResult(res) })
		if err != nil {
			return err
		}
		decSecs += timeIt(func() { _, err = fabric.DecodeUnitResult(blob) })
		js.resultBytes = append(js.resultBytes, float64(len(blob)))
		n++
		return err
	}
	plan := core.Plan(sh.rtlConfig(e, seed))
	// A sample spread over the plan: every 9th micro unit, every 3rd t-MxM unit.
	for i := 0; i < len(char.Micro) && err == nil; i += 9 {
		err = add(&core.UnitResult{Unit: plan[i], Micro: char.Micro[i]})
	}
	for i := 0; i < len(char.TMXM) && err == nil; i += 3 {
		err = add(&core.UnitResult{Unit: plan[len(char.Micro)+i], TMXM: char.TMXM[i]})
	}
	tr.end(id, nil)
	if err != nil {
		return err
	}
	js.encodeUS, js.decodeUS = encSecs/float64(n)*1e6, decSecs/float64(n)*1e6

	id = tr.begin("fabric.idle_lease_probe")
	transport := fabric.NewHTTPTransport(s.http.URL)
	reg, err := transport.Register(fabric.RegisterRequest{Name: "bench-idle-probe"})
	if err == nil {
		js.idleLeaseUS = timeIt(func() {
			_, err = transport.Lease(fabric.LeaseRequest{WorkerID: reg.WorkerID, Max: 1})
		}) * 1e6
	}
	tr.end(id, nil)
	if err != nil {
		return err
	}

	for _, w := range s.coord.Status().Workers {
		js.unitsCompleted += float64(w.Completed)
	}
	return filepath.Walk(s.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			js.journalBytes += float64(info.Size())
		}
		return err
	})
}
