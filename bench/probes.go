package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"gpufi"
	"gpufi/internal/core"
	"gpufi/internal/emu"
	"gpufi/internal/faults"
	"gpufi/internal/fp32"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
	"gpufi/internal/mxm"
	"gpufi/internal/replay"
	"gpufi/internal/rtl"
	"gpufi/internal/rtlfi"
	"gpufi/internal/stats"
	"gpufi/internal/swfi"
	"gpufi/internal/syndrome"
)

// ledger maps per-layer metric names to values.
type ledger map[string]float64

// rate accumulates work done over time spent.
type rate struct{ n, secs float64 }

func (r *rate) add(n int, d time.Duration) { r.n += float64(n); r.secs += d.Seconds() }

func (r *rate) perSec() float64 {
	if r == nil || r.secs == 0 {
		return 0
	}
	return r.n / r.secs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// collector gathers what the traced pass sees at each layer boundary.
type collector struct {
	unitMS, firstMS []float64
	byModule        map[string]*rate
	micro, tmxm     rate
	buildSecs       float64
	planUnits       int

	prepSecs, prepCNNSecs float64
	campMS                []float64
	campSecs              float64
	byApp                 map[string]*rate // preparation included
	byModel               map[string]*rate

	jobs *jobStats // serve_fabric
}

func newCollector() *collector {
	return &collector{byModule: map[string]*rate{}, byApp: map[string]*rate{}, byModel: map[string]*rate{}}
}

func bump(m map[string]*rate, key string, n int, d time.Duration) {
	if m[key] == nil {
		m[key] = &rate{}
	}
	m[key].add(n, d)
}

func (c *collector) unit(u core.Unit, faults int, wall, first, build time.Duration) {
	c.planUnits++
	c.unitMS = append(c.unitMS, wall.Seconds()*1e3)
	c.firstMS = append(c.firstMS, first.Seconds()*1e3)
	c.buildSecs += build.Seconds()
	bump(c.byModule, u.Module.String(), faults, wall)
	if u.Kind == core.UnitTMXM {
		c.tmxm.add(faults, wall)
	} else {
		c.micro.add(faults, wall)
	}
}

func (c *collector) prepare(app string, d time.Duration, isCNN bool) {
	if isCNN {
		c.prepCNNSecs += d.Seconds()
	} else {
		c.prepSecs += d.Seconds()
	}
	bump(c.byApp, app, 0, d)
}

func (c *collector) campaign(app, model string, inj int, wall time.Duration) {
	c.campMS = append(c.campMS, wall.Seconds()*1e3)
	c.campSecs += wall.Seconds()
	bump(c.byApp, app, inj, wall)
	bump(c.byModel, model, inj, wall)
}

// samples is the sample count behind each median or percentile row.
func (c *collector) samples() map[string]int {
	n := map[string]int{
		"rtlfi.unit_ms_p50": len(c.unitMS), "rtlfi.unit_ms_p90": len(c.unitMS),
		"rtlfi.first_progress_ms_p50": len(c.firstMS), "swfi.campaign_ms_p50": len(c.campMS),
	}
	if c.jobs != nil {
		n["jobs.submit_ms_p50"], n["jobs.status_ms_p50"] = len(c.jobs.submitMS), len(c.jobs.statusMS)
		n["fabric.result_bytes_p50"] = len(c.jobs.resultBytes)
	}
	return n
}

// fill turns the traced pass's collection and its exact counters into
// ledger rows.
func (c *collector) fill(l ledger, exact map[string]float64) {
	if len(c.unitMS) > 0 {
		l["rtlfi.unit_ms_p50"] = median(c.unitMS)
		l["rtlfi.unit_ms_p90"], _ = tailPercentile(c.unitMS, 90)
		l["rtlfi.first_progress_ms_p50"] = median(c.firstMS)
		l["rtlfi.micro_faults_per_s"] = c.micro.perSec()
		l["rtlfi.tmxm_faults_per_s"] = c.tmxm.perSec()
		for _, mod := range rtlModules {
			l["rtlfi.faults_per_s."+mod] = c.byModule[mod].perSec()
		}
		l["syndrome.build_ms"] = c.buildSecs * 1e3
		l["pipeline.plan_units"] = float64(c.planUnits)
	}
	if inj := exact["rtlfi.injections"]; inj > 0 {
		sim, skipped := exact["rtl.sim_cycles"], exact["rtl.skipped_cycles"]
		l["rtl.sim_cycles"], l["rtl.skipped_cycles"] = sim, skipped
		l["rtlfi.replay_speedup"] = ratio(sim+skipped, sim)
		l["rtlfi.prune_rate"] = exact["rtlfi.pruned_faults"] / inj
		l["rtlfi.collapse_rate"] = exact["rtlfi.collapsed_faults"] / inj
		l["rtlfi.vector_rate"] = exact["rtlfi.vector_faults"] / inj
		l["rtlfi.lane_occupancy"] = ratio(exact["rtlfi.vector_faults"], exact["rtlfi.marches"]*rtl.VecMaxLanes)
	}
	if len(c.campMS) > 0 {
		l["swfi.prepare_s"], l["swfi.prepare_cnn_s"] = c.prepSecs, c.prepCNNSecs
		prep := c.prepSecs + c.prepCNNSecs
		l["swfi.prepare_share"] = prep / (prep + c.campSecs)
		slowest := 0.0
		for app, r := range c.byApp {
			l["swfi.inj_per_s."+app] = r.perSec()
			slowest = math.Max(slowest, r.secs)
		}
		l["swfi.slowest_app_share"] = slowest / (prep + c.campSecs)
		for model, r := range c.byModel {
			l["swfi.inj_per_s."+model] = r.perSec()
		}
		l["swfi.campaign_ms_p50"] = median(c.campMS)
		sim, skipped, inj := exact["swfi.sim_instrs"], exact["swfi.skipped_instrs"], exact["swfi.injections"]
		l["swfi.sim_instrs"], l["swfi.skipped_instrs"] = sim, skipped
		l["swfi.ff_speedup"] = ratio(sim+skipped, sim)
		l["swfi.prune_rate"] = exact["swfi.pruned_faults"] / inj
		l["swfi.collapse_rate"] = exact["swfi.collapsed_faults"] / inj
		l["swfi.emu_mips"] = sim / c.campSecs / 1e6
		l["swfi.effective_mips"] = (sim + skipped) / c.campSecs / 1e6
	}
	if c.jobs != nil {
		c.jobs.fill(l)
	}
}

// probeFloor is how long timeIt repeats a call for.
const probeFloor = 50 * time.Millisecond

// timeIt runs f repeatedly for at least probeFloor and returns the mean
// seconds per call.
func timeIt(f func()) float64 {
	n := 0
	t0 := time.Now()
	for time.Since(t0) < probeFloor {
		f()
		n++
	}
	return time.Since(t0).Seconds() / float64(n)
}

// runProbes times the layers a workload's pass enters, from outside,
// through their exported functions. char is the traced pass's
// characterisation (nil when the pass has no RTL phase).
func runProbes(e *env, st *state, sh shape, char *core.Characterization, tr *tracer, l ledger) error {
	probe := func(name string, f func() error) error {
		id := tr.begin(name)
		err := f()
		tr.end(id, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	if sh.rtl > 0 {
		if err := probe("rtl.probe", func() error { return probeRTL(l) }); err != nil {
			return err
		}
	}
	db := st.db
	if char != nil {
		db = char.DB
	}
	if db != nil {
		if err := probe("syndrome.probe", func() error { return probeSyndrome(e, db, l) }); err != nil {
			return err
		}
	}
	if len(st.suite) > 0 || len(st.nets) > 0 {
		if err := probe("emu.probe", func() error { return probeEmu(st, l) }); err != nil {
			return err
		}
		if err := probe("replay.probe", func() error { return probeReplay(st, l) }); err != nil {
			return err
		}
		return probe("fp32.probe", func() error { probeFP32(l); return nil })
	}
	return nil
}

// probeRTL times the fault-free RTL machine over the 12 micro programs
// and the t-MxM tile: plain run, liveness-traced run, snapshot, restore.
func probeRTL(l ledger) error {
	type golden struct {
		prog          *kasm.Program
		block, shared int
		global        []uint32
		budget        uint64
	}
	var runs []golden
	for _, op := range isa.CharacterizedOpcodes() {
		prog, err := rtlfi.BuildMicro(op)
		if err != nil {
			return err
		}
		runs = append(runs, golden{prog, rtlfi.MicroThreads, 0,
			rtlfi.MicroInputs(op, faults.RangeMedium, stats.NewRNG(1)), 1_000_000})
	}
	tile, err := mxm.Build(mxm.Tile)
	if err != nil {
		return err
	}
	a, b := mxm.TileInputs(mxm.TileRandom, 1)
	runs = append(runs, golden{tile, mxm.BlockThreads, mxm.SharedWords, mxm.Pack(a, b, mxm.Tile), 5_000_000})

	m := rtl.New()
	var runErr error
	sweep := func(traced bool) (cycles uint64) {
		for _, g := range runs {
			if traced {
				m.TraceLiveness(&rtl.Liveness{})
			}
			err := m.Run(g.prog, 1, g.block, append([]uint32(nil), g.global...), g.shared, g.budget)
			m.TraceLiveness(nil)
			if err != nil {
				runErr = err
			}
			cycles += m.Cycles()
		}
		return cycles
	}
	cycles := sweep(false)
	plain := timeIt(func() { sweep(false) })
	traced := timeIt(func() { sweep(true) })
	if runErr != nil {
		return runErr
	}
	l["rtl.golden_mcycles_per_s"] = float64(cycles) / plain / 1e6
	l["rtl.liveness_trace_overhead"] = traced / plain

	// Snapshot and restore at the tile run's midpoint.
	g := runs[len(runs)-1]
	if err := m.Run(g.prog, 1, g.block, append([]uint32(nil), g.global...), g.shared, g.budget); err != nil {
		return err
	}
	var mid *rtl.Snapshot
	half := m.Cycles() / 2
	err = m.RunCheckpointed(g.prog, 1, g.block, append([]uint32(nil), g.global...), g.shared, g.budget, half, func(s *rtl.Snapshot) {
		if s.Cycle() == half {
			mid = s
		}
	})
	if err != nil || mid == nil {
		return fmt.Errorf("no mid-run snapshot (err %v)", err)
	}
	l["rtl.restore_us"] = timeIt(func() { m.Restore(mid) }) * 1e6
	l["rtl.snapshot_us"] = timeIt(func() { m.Snapshot() }) * 1e6
	return nil
}

// probeSyndrome times the database's save, load and sampling paths.
func probeSyndrome(e *env, db *syndrome.DB, l ledger) error {
	path := filepath.Join(e.tmp, "probe-syndromes.json")
	defer os.Remove(path)
	var err error
	l["syndrome.save_ms"] = timeIt(func() {
		if e := gpufi.SaveDB(db, path); e != nil {
			err = e
		}
	}) * 1e3
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	l["syndrome.db_bytes"] = float64(info.Size())
	l["syndrome.load_ms"] = timeIt(func() {
		if _, e := gpufi.LoadDB(path); e != nil {
			err = e
		}
	}) * 1e3
	if err != nil {
		return err
	}
	ops := isa.CharacterizedOpcodes()
	r := stats.NewRNG(1)
	i := 0
	l["syndrome.sample_ns"] = timeIt(func() {
		db.Sample(ops[i%len(ops)], faults.AllRanges()[i%3], syndrome.SamplePowerLaw, r)
		i++
	}) * 1e9
	l["syndrome.sample_tile_ns"] = timeIt(func() { db.SampleTile(r) }) * 1e9
	return nil
}

// execution is one application or network run on a Runner.
type execution struct {
	name string
	cnn  bool
	run  func(rt replay.Runner) error
	// liveness finishes a recorder's dead-site index the way swfi's
	// preparation does for this kind of workload.
	liveness func(rec *replay.Recorder)
}

func executions(st *state) []execution {
	var out []execution
	for _, w := range st.suite {
		w := w
		out = append(out, execution{
			name:     w.Name,
			run:      func(rt replay.Runner) error { _, err := w.ExecuteWith(rt); return err },
			liveness: func(rec *replay.Recorder) { rec.ComputeLiveness(0, 0, true) },
		})
	}
	for _, nc := range st.nets {
		nc := nc
		out = append(out, execution{
			name: nc.name, cnn: true,
			run: func(rt replay.Runner) error { _, err := nc.net.RunWith(rt, nc.input, nil); return err },
			liveness: func(rec *replay.Recorder) {
				off, words := nc.net.OutputRegion()
				rec.ComputeLiveness(off, words, false)
			},
		})
	}
	return out
}

// probeEmu times each golden execution on the emulator's three paths:
// the pre-decoded Tier 1, the Tier-0 reference interpreter, and Tier 0
// under a counting Post hook; then snapshot and resume on one launch.
func probeEmu(st *state, l ledger) error {
	var tier1, tier0, hooked rate
	var firstErr error
	timed := func(ex execution, rt *replay.Plain) time.Duration {
		t0 := time.Now()
		if err := ex.run(rt); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", ex.name, err)
		}
		return time.Since(t0)
	}
	execs := executions(st)
	for _, ex := range execs {
		fast := &replay.Plain{}
		d := timed(ex, fast)
		instrs := int(fast.Res.DynThreadInstrs)
		tier1.add(instrs, d)
		if ex.cnn {
			l["cnn.forward_ms."+ex.name] = d.Seconds() * 1e3
		} else {
			l["apps.golden_ms."+ex.name] = d.Seconds() * 1e3
		}
		tier0.add(instrs, timed(ex, &replay.Plain{NoFastPath: true}))
		var seen uint64
		hooked.add(instrs, timed(ex, &replay.Plain{Hooks: emu.Hooks{Post: func(ev *emu.Event) {
			seen += uint64(ev.ActiveCount())
		}}}))
		if firstErr == nil && seen != fast.Res.DynThreadInstrs {
			firstErr = fmt.Errorf("%s: hook saw %d instructions, run counted %d", ex.name, seen, fast.Res.DynThreadInstrs)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	l["emu.tier1_mips"] = tier1.perSec() / 1e6
	l["emu.tier0_mips"] = tier0.perSec() / 1e6
	l["emu.hooked_mips"] = hooked.perSec() / 1e6
	return probeEmuSnapshot(execs[0], l)
}

// firstLaunch is a Runner that runs only an execution's first launch,
// through probe, and fails the rest.
type firstLaunch struct {
	probe func(l *emu.Launch) error
	done  bool
}

var errProbeDone = errors.New("bench: probe stops after the first launch")

func (f *firstLaunch) Arena(words int) []uint32 { return make([]uint32, words) }

func (f *firstLaunch) Launch(l *emu.Launch) error {
	if f.done {
		return errProbeDone
	}
	f.done = true
	if err := f.probe(l); err != nil {
		return err
	}
	return errProbeDone
}

// probeEmuSnapshot prices an emulator snapshot (a checkpointed run's cost
// over a plain one, per snapshot) and a resume (Resume from the last
// snapshot, less the tail it still has to interpret) on the first launch
// of ex.
func probeEmuSnapshot(ex execution, l ledger) error {
	const snaps = 32
	var probeErr error
	err := ex.run(&firstLaunch{probe: func(launch *emu.Launch) error {
		pristine := append([]uint32(nil), launch.Global...)
		reset := func() { copy(launch.Global, pristine) }
		res, err := emu.Run(launch)
		if err != nil {
			return err
		}
		total := res.DynThreadInstrs
		plain := timeIt(func() { reset(); _, probeErr = emu.Run(launch) })
		var last *emu.Snapshot
		taken := 0
		ckpt := timeIt(func() {
			reset()
			taken = 0
			_, probeErr = emu.RunCheckpointed(launch, total/snaps, total/snaps, func(s *emu.Snapshot) { last, taken = s, taken+1 })
		})
		if last == nil {
			return fmt.Errorf("no snapshot taken")
		}
		l["emu.snapshot_us"] = math.Max(0, ckpt-plain) / float64(taken) * 1e6
		tail := plain * float64(total-last.Res().DynThreadInstrs) / float64(total)
		resume := timeIt(func() { _, probeErr = emu.Resume(launch, last) })
		l["emu.resume_us"] = math.Max(0, resume-tail) * 1e6
		return nil
	}})
	if !errors.Is(err, errProbeDone) {
		return fmt.Errorf("%s: %w", ex.name, err)
	}
	return probeErr
}

// probeReplay prices trace recording against a plain run, and the
// dead-site index build on top of recording.
func probeReplay(st *state, l ledger) error {
	var plainSecs, recSecs, liveSecs float64
	var ckpts, dead, sites uint64
	for _, ex := range executions(st) {
		plain := &replay.Plain{}
		t0 := time.Now()
		if err := ex.run(plain); err != nil {
			return err
		}
		plainSecs += time.Since(t0).Seconds()
		every := plain.Res.DynThreadInstrs / 24 // swfi's checkpointsPerCampaign

		rec := replay.NewRecorder(every, swfi.Injectable)
		t0 = time.Now()
		if err := ex.run(rec); err != nil {
			return err
		}
		record := time.Since(t0).Seconds()
		recSecs += record

		rec = replay.NewRecorder(every, swfi.Injectable)
		rec.CaptureLiveness(func(ev *emu.Event, lane int) float64 {
			return math.Abs(float64(math.Float32frombits(ev.SrcA(lane))))
		})
		t0 = time.Now()
		if err := ex.run(rec); err != nil {
			return err
		}
		ex.liveness(rec)
		liveSecs += math.Max(0, time.Since(t0).Seconds()-record)
		tr := rec.Finish()
		ckpts += uint64(len(tr.Ckpts))
		dead += tr.Live.DeadSites()
		sites += tr.Live.Sites()
	}
	l["replay.record_overhead"] = ratio(recSecs, plainSecs)
	l["replay.liveness_build_ms"] = liveSecs * 1e3
	l["replay.trace_checkpoints"] = float64(ckpts)
	l["replay.dead_site_share"] = ratio(float64(dead), float64(sites))
	return nil
}

// fp32Sink keeps the compiler from discarding the probed calls.
var fp32Sink float32

// probeFP32 times the arithmetic the emulator's datapath calls, over a
// fixed vector of normal operands.
func probeFP32(l ledger) {
	const n = 1024
	var a, b, c [n]float32
	r := stats.NewRNG(1)
	for i := range a {
		a[i] = float32(r.Float64Range(0.5, 2))
		b[i] = float32(r.Float64Range(-3, 3))
		c[i] = float32(r.Float64Range(-1, 1))
	}
	per := func(f func(i int) float32) float64 {
		return timeIt(func() {
			var s float32
			for i := 0; i < n; i++ {
				s += f(i)
			}
			fp32Sink = s
		}) / n * 1e9
	}
	l["fp32.add_ns"] = per(func(i int) float32 { return fp32.Add(a[i], b[i]) })
	l["fp32.mul_ns"] = per(func(i int) float32 { return fp32.Mul(a[i], b[i]) })
	l["fp32.fma_ns"] = per(func(i int) float32 { return fp32.Fma(a[i], b[i], c[i]) })
	l["fp32.sfu_ns"] = per(func(i int) float32 {
		return fp32.Sin(c[i]) + fp32.Exp(c[i]) + fp32.Rcp(a[i]) + fp32.Rsqrt(a[i])
	}) / 4
}
