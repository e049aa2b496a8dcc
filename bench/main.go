// Command bench is gpufi-bench, the two-level pipeline benchmark: five
// workloads over characterise -> syndrome DB -> HPC/CNN campaigns ->
// reports and the job service, three gating end-to-end metrics, a
// per-layer ledger and a traced run. See README.md.
//
//	bash bench/run.sh --workload rtl_paper --seed 2021 --seconds 15 --trace 0
//	go run ./bench -workload all -seed 2021 -trace 1 -out bench/out/set1
//	go run ./bench -compare bench/out/set1/results.json bench/out/set2/results.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    string
	out      string
	workers  int
	dbPath   string
	tmpRoot  string

	updateExpected bool
}

func main() {
	var o options
	var compare, manifest bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all to run each in a process of its own")
	flag.Uint64Var(&o.seed, "seed", 2021, "workload seed; pass p runs on seed + 1000p")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long a run measures (at least the scale's minimum passes)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run printing the per-layer ledger; 0 = end-to-end metrics")
	flag.StringVar(&o.scale, "scale", "full", "workload sizes: full or tiny")
	flag.StringVar(&o.out, "out", "", "directory for results.json and trace.json (default: none written)")
	flag.IntVar(&o.workers, "workers", min(runtime.NumCPU(), 4), "GOMAXPROCS and every engine's worker count")
	flag.StringVar(&o.dbPath, "db", "data/syndromes.json", "committed syndrome database the software workloads sample")
	flag.BoolVar(&o.updateExpected, "update-expected", false, "record pass digests into bench/expected instead of checking them (run from the repository root)")
	flag.BoolVar(&compare, "compare", false, "compare two results.json files given as arguments; exit 1 on any out-of-bound pair")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json as declared by this driver")
	flag.Parse()
	o.tmpRoot = ".bench_build"

	switch {
	case manifest:
		os.Stdout.Write(manifestJSON())
		return
	case compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two results.json files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if o.workload == "all" {
		err = runAll(ctx, o)
	} else {
		var res *runResult
		if res, err = runWorkload(ctx, o); err == nil {
			err = res.emit(os.Stdout, o)
		}
	}
	if err != nil {
		stop()
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// passRecord is one timed pass in a result file.
type passRecord struct {
	Seed   uint64             `json:"seed"`
	Faults int                `json:"faults"`
	WallS  float64            `json:"wall_s"`
	Rate   float64            `json:"faults_per_s"`
	Digest string             `json:"digest"`
	Exact  map[string]float64 `json:"exact"`
	Phases map[string]float64 `json:"phases_s,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload's run, as written to result files.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Scale     string                 `json:"scale"`
	Workers   int                    `json:"workers"`
	SetupS    []float64              `json:"setup_s,omitempty"`
	Passes    []passRecord           `json:"passes"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`

	// Traced runs only.
	Spans        []span             `json:"-"`
	LayerSelfS   map[string]float64 `json:"layer_self_s,omitempty"`
	TracedWallS  float64            `json:"traced_pass_wall_s,omitempty"`
	traced       bool
	sampleCounts map[string]int
}

func (r *runResult) fail(ops int, format string, args ...any) {
	r.Failed += ops
	msg := fmt.Sprintf(format, args...)
	r.Failures = append(r.Failures, msg)
	fmt.Fprintln(os.Stderr, "bench: FAILED:", msg)
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, o options) (*runResult, error) {
	sz, ok := scales[o.scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", o.scale)
	}
	sh, err := shapeOf(o.workload, sz)
	if err != nil {
		return nil, err
	}
	if o.workers < 1 || o.workers > runtime.NumCPU() {
		return nil, fmt.Errorf("%d workers on %d CPUs: the closed loop would measure queueing, not the engines", o.workers, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(o.workers)
	if err := os.MkdirAll(o.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.tmpRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{ctx: ctx, workers: o.workers, dbPath: o.dbPath, tmp: tmp}
	res := &runResult{
		Workload: o.workload, Seed: o.seed, Scale: o.scale, Workers: o.workers,
		Metrics: map[string]metricValue{}, traced: o.trace == 1, sampleCounts: map[string]int{},
	}
	if res.traced {
		err = tracedRun(e, o, sh, res)
	} else {
		err = timedRun(e, o, sz, sh, res)
	}
	if err == nil {
		err = ctx.Err()
	}
	return res, err
}

// checkPass verifies one pass: every tally is complete and of the size
// asked for, and the digest matches the committed one where there is one.
func (r *runResult) checkPass(o options, sh shape, pass int, out *passOut, err error) passRecord {
	if err == nil {
		err = out.finish()
	}
	rec := passRecord{Seed: passSeed(o.seed, pass), Faults: out.faults, Exact: out.exact, Digest: out.stats.digest()}
	if len(out.phases) > 1 {
		rec.Phases = out.phases
	}
	ops := max(out.ops, 1)
	r.Attempted += ops
	if err == nil {
		err = out.stats.tallyError(sh)
	}
	switch want, committed := loadExpected(o.workload)[expectedKey(o.scale, o.seed, pass)]; {
	case err != nil:
		r.fail(ops, "pass %d: %v", pass, err)
	case committed && !o.updateExpected && want != rec.Digest:
		r.fail(ops, "pass %d: digest %s, bench/expected has %s", pass, rec.Digest, want)
	}
	return rec
}

func passSeed(seed uint64, pass int) uint64 { return seed + 1000*uint64(pass) }

// tallyError reports the first campaign whose outcomes do not add up to
// the injections asked for.
func (s *passStats) tallyError(sh shape) error {
	check := func(what string, t faults.Tally, want int) error {
		if got := t.Maskeds + t.SDCSingle + t.SDCMulti + t.DUEs; got != t.Injections || t.Injections != want {
			return fmt.Errorf("%s: %d outcomes of %d injections, wanted %d", what, got, t.Injections, want)
		}
		return nil
	}
	for _, u := range s.Units {
		if err := check(u.Unit, u.Tally, sh.rtl); err != nil {
			return err
		}
	}
	for _, c := range append(append(append([]campStat(nil), s.HPC...), s.CNN...), s.Undigested...) {
		want := sh.hpc
		switch c.App {
		case "LeNet":
			want = sh.lenet
		case "Yolo":
			want = sh.yolo
		}
		if err := check(c.App+"/"+c.Model, c.Tally, want); err != nil {
			return err
		}
	}
	return nil
}

// expectedPasses is how many passes per seed -update-expected records.
const expectedPasses = 6

// timedRun is the untraced run the end-to-end metrics come from.
func timedRun(e *env, o options, sz sizes, sh shape, res *runResult) error {
	timedSetup := func() (*state, error) {
		t0 := time.Now()
		st, err := setup(e, o.workload, sh, o.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
		return st, nil
	}
	// The set-ups beyond the first are taken after the passes, so that one
	// slow spell of the machine cannot cover most of the samples.
	st, err := timedSetup()
	if err != nil {
		return err
	}
	defer func() { st.close() }()

	var walls, rates []float64
	digests := map[string]string{}
	start := time.Now()
	for p := 0; e.ctx.Err() == nil; p++ {
		if o.updateExpected {
			if p >= expectedPasses {
				break
			}
		} else if p >= sz.minPasses && time.Since(start).Seconds()+median(walls) > o.seconds {
			break
		}
		t0 := time.Now()
		out, err := runPass(e, st, sh, passSeed(o.seed, p), nil, nil)
		wall := time.Since(t0).Seconds()
		rec := res.checkPass(o, sh, p, out, err)
		rec.WallS, rec.Rate = wall, float64(out.faults)/wall
		res.Passes = append(res.Passes, rec)
		walls, rates = append(walls, wall), append(rates, rec.Rate)
		digests[expectedKey(o.scale, o.seed, p)] = rec.Digest
	}
	if o.updateExpected && res.Failed == 0 {
		if err := updateExpected(filepath.Join("bench", "expected"), o.workload, digests); err != nil {
			return err
		}
	}

	for len(res.SetupS) < sz.setupReps && e.ctx.Err() == nil {
		st.close()
		if st, err = timedSetup(); err != nil {
			return err
		}
	}

	// Not timed: the default engines against the naive reference engines
	// on a seed-chosen sample, so an unseen seed is still checked.
	res.Attempted++
	if err := crossCheck(e, o.workload, sh, o.seed); err != nil {
		res.fail(1, "cross-check: %v", err)
	}

	res.set("setup_s", median(res.SetupS), len(res.SetupS))
	res.set("faults_per_s", median(rates), len(rates))
	res.set("peak_rss_mb", peakRSSMB(), 1)
	return nil
}

func (r *runResult) set(name string, v float64, samples int) {
	unit, ok := declaredUnit[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = metricValue{v, unit}
	r.sampleCounts[name] = samples
}

// crossCheck runs a small seed-chosen sample of the workload's campaigns
// twice — default engines, then every accelerator off — and requires the
// same digest: whatever an accelerator skips, it may not change a result.
func crossCheck(e *env, workload string, sh shape, seed uint64) error {
	tiny := scales["tiny"]
	chk := shape{pipeline: sh.pipeline, serve: sh.serve}
	if sh.rtl > 0 {
		ops := isa.CharacterizedOpcodes()
		chk.rtl, chk.ops, chk.skipTMXM = tiny.rtlPaper, ops[seed%uint64(len(ops)):][:1], true
	}
	if sh.hpc > 0 {
		chk.hpc, chk.apps = tiny.hpc, 2
	}
	if sh.lenet > 0 {
		chk.lenet = tiny.lenet
	}
	st, err := build(e, chk)
	if err != nil {
		return err
	}
	defer st.close()
	fast, err := runPass(e, st, chk, seed, nil, nil)
	if err != nil {
		return err
	}
	ref := *e
	ref.ref = true
	slow, err := runPass(&ref, st, chk, seed, nil, nil)
	if err != nil {
		return fmt.Errorf("reference engines: %w", err)
	}
	if err := errors.Join(fast.finish(), slow.finish()); err != nil {
		return err
	}
	if a, b := fast.stats.digest(), slow.stats.digest(); a != b {
		return fmt.Errorf("%s: default engines digest %s, reference engines %s", workload, a, b)
	}
	return nil
}

// tracedRun runs pass 0 twice — through the public entry points, then
// unrolled under spans — and the layer probes, and fills the ledger.
func tracedRun(e *env, o options, sh shape, res *runResult) error {
	st, err := setup(e, o.workload, sh, o.seed)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	seed := passSeed(o.seed, 0)

	t0 := time.Now()
	plainOut, err := runPass(e, st, sh, seed, nil, nil)
	plainWall := time.Since(t0)
	plain := res.checkPass(o, sh, 0, plainOut, err)
	plain.WallS, plain.Rate = plainWall.Seconds(), float64(plainOut.faults)/plainWall.Seconds()
	res.Passes = append(res.Passes, plain)
	if err != nil {
		return nil // reported as failed
	}

	tr := newTracer(o.workload)
	col := newCollector()
	if sh.serve {
		col.jobs = &jobStats{}
	}
	root := tr.begin("pass")
	t0 = time.Now()
	tracedOut, err := runPass(e, st, sh, seed, tr, col)
	tracedWall := time.Since(t0)
	tr.end(root, map[string]float64{"faults": float64(tracedOut.faults)})
	traced := res.checkPass(o, sh, 0, tracedOut, err)
	if err == nil && traced.Digest != plain.Digest {
		res.fail(max(tracedOut.ops, 1), "traced pass digest %s differs from untraced %s", traced.Digest, plain.Digest)
	}
	if err != nil {
		return nil
	}

	l := ledger{}
	probes := tr.begin("probes")
	if sh.serve {
		err = st.srv.probeServe(e, sh, seed, tracedWall, traced.Digest, tr, col.jobs)
	} else {
		err = runProbes(e, st, sh, tracedOut.char, tr, l)
	}
	tr.end(probes, nil)
	res.Attempted++
	if err != nil {
		res.fail(1, "layer probes: %v", err)
	}

	col.fill(l, tracedOut.exact)
	if sh.pipeline {
		for name, secs := range plainOut.phases {
			l["pipeline."+name+"_s"] = secs
		}
	}
	hostLedger(l)
	l["trace.overhead_ratio"] = tracedWall.Seconds() / plainWall.Seconds()
	l["trace.spans"] = float64(len(tr.spans))
	for _, m := range perLayer {
		res.set(m.Name, l[m.Name], 1)
		delete(l, m.Name)
	}
	for name := range l {
		return fmt.Errorf("ledger row %q is not declared in manifest.go", name)
	}
	for name, n := range col.samples() {
		res.sampleCounts[name] = max(n, 1)
	}
	res.Spans = tr.spans
	res.LayerSelfS = layerSelfSeconds(tr.spans, root)
	res.TracedWallS = tracedWall.Seconds()
	return nil
}

// hostLedger reads this process's resource use.
func hostLedger(l ledger) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		l["host.cpu_s"] = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l["host.alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
	l["host.gc_cycles"] = float64(ms.NumGC)
	l["host.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	// run.sh times `go build`; a bare `go run` leaves it unknown (0).
	l["host.build_s"], _ = strconv.ParseFloat(os.Getenv("GPUFI_BENCH_BUILD_S"), 64)
}

// peakRSSMB is VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// emit prints every metric by name with unit, direction, bound and
// sample count, writes the result files when asked, and ends standard
// output with the one-line JSON result the benchmark driver reads.
func (r *runResult) emit(w io.Writer, o options) error {
	decls := endToEnd
	if r.traced {
		decls = perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d scale=%s workers=%d passes=%d\n", r.Workload, r.Seed, r.Scale, r.Workers, len(r.Passes))
	for _, m := range decls {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		bound := "no bound"
		if m.Bound > 0 {
			bound = fmt.Sprintf("bound %.2f", m.Bound)
		}
		fmt.Fprintf(w, "%-34s %16.6g %-9s %s is better, %s, n=%d\n", m.Name, v.Value, v.Unit, m.Better, bound, r.sampleCounts[m.Name])
	}
	fmt.Fprintf(w, "%-34s %16.6g %-9s lower is better, must be 0, n=%d\n", "failed_share", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio", r.Attempted)
	if r.traced {
		sum := 0.0
		for layer, secs := range r.LayerSelfS {
			fmt.Fprintf(w, "self time %-24s %10.4f s\n", layer, secs)
			sum += secs
		}
		fmt.Fprintf(w, "self time %-24s %10.4f s of a %.4f s traced pass\n", "(sum)", sum, r.TracedWallS)
	}
	if o.out != "" {
		if err := r.write(o.out); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0, max(r.Attempted, 1), r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// resultName is a run's file name inside an -out directory.
func resultName(workload string, traced bool) string {
	if traced {
		return workload + ".traced.json"
	}
	return workload + ".json"
}

func (r *runResult) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, resultName(r.Workload, r.traced)), r); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	return writeJSON(filepath.Join(dir, r.Workload+".spans.json"), r.Spans)
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readJSON(path string, into any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// hostInfo identifies the recording machine in a results file.
type hostInfo struct {
	NProc   int    `json:"nproc"`
	CPU     string `json:"cpu"`
	Go      string `json:"go"`
	Workers int    `json:"workers"`
}

func thisHost(workers int) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), Go: runtime.Version(), Workers: workers}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// resultSet is results.json: one complete set of runs.
type resultSet struct {
	Host   hostInfo              `json:"host"`
	Seed   uint64                `json:"seed"`
	Scale  string                `json:"scale"`
	Runs   map[string]*runResult `json:"runs"`
	Traced map[string]*runResult `json:"traced,omitempty"`
}

// runAll runs every workload in a fresh process of its own (so peak RSS
// and GC state are per workload), then merges the children's files into
// results.json and trace.json.
func runAll(ctx context.Context, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir := o.out
	if dir == "" {
		if err := os.MkdirAll(o.tmpRoot, 0o755); err != nil {
			return err
		}
		if dir, err = os.MkdirTemp(o.tmpRoot, "all-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	set := resultSet{Host: thisHost(o.workers), Seed: o.seed, Scale: o.scale, Runs: map[string]*runResult{}}
	type layerTrace struct {
		PassWallS  float64            `json:"traced_pass_wall_s"`
		LayerSelfS map[string]float64 `json:"layer_self_s"`
		Spans      []span             `json:"spans"`
	}
	traces := map[string]layerTrace{}
	failed := 0
	for _, w := range workloadDecls {
		for trace := 0; trace <= o.trace; trace++ {
			args := []string{
				"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(trace), "-scale", o.scale, "-out", dir,
				"-workers", fmt.Sprint(o.workers), "-db", o.dbPath,
			}
			if o.updateExpected {
				args = append(args, "-update-expected")
			}
			cmd := exec.CommandContext(ctx, self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.Name, trace, err)
			}
			path := filepath.Join(dir, resultName(w.Name, trace == 1))
			var res runResult
			if err := readJSON(path, &res); err != nil {
				return err
			}
			os.Remove(path)
			failed += res.Failed
			if trace == 0 {
				set.Runs[w.Name] = &res
				continue
			}
			if set.Traced == nil {
				set.Traced = map[string]*runResult{}
			}
			set.Traced[w.Name] = &res
			spansPath := filepath.Join(dir, w.Name+".spans.json")
			lt := layerTrace{PassWallS: res.TracedWallS, LayerSelfS: res.LayerSelfS}
			if err := readJSON(spansPath, &lt.Spans); err != nil {
				return err
			}
			os.Remove(spansPath)
			traces[w.Name] = lt
		}
	}
	if o.out != "" {
		if err := writeJSON(filepath.Join(dir, "results.json"), set); err != nil {
			return err
		}
		if o.trace == 1 {
			if err := writeJSON(filepath.Join(dir, "trace.json"), traces); err != nil {
				return err
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
