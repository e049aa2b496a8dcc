package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gpufi"
	"gpufi/internal/apps"
	"gpufi/internal/cnn"
	"gpufi/internal/core"
	"gpufi/internal/isa"
	"gpufi/internal/mxm"
	"gpufi/internal/rtlfi"
	"gpufi/internal/swfi"
	"gpufi/internal/syndrome"
)

// sizes is one scale of the five workloads: faults per RTL campaign and
// injections per software campaign.
type sizes struct {
	rtlPaper                                  int
	hpc                                       int
	lenet, yolo                               int
	quickRTL, quickHPC, quickLeNet, quickYolo int
	serve                                     int

	ops []isa.Opcode // RTL opcode subset; nil = all 12

	minPasses int // timed passes per run, at least
	setupReps int // set-ups per run; setup_s is their median
}

// Sizes are fitted to a 2-vCPU VM so a pass takes 5-6 s and a run of
// three passes plus three set-ups stays near 20 s: the driver makes 114
// runs in 3420 s. The issue's 400 injections per HPC campaign would take
// 9.5 s a pass, so sw_hpc runs at 200.
var scales = map[string]sizes{
	"full": {rtlPaper: 12000, hpc: 200, lenet: 6000, yolo: 1800,
		quickRTL: 200, quickHPC: 100, quickLeNet: 100, quickYolo: 30,
		serve: 2000, minPasses: 3, setupReps: 5},
	// tiny is the smoke-test and warm-up scale: a 39-unit plan over one
	// opcode per functional-unit family plus the t-MxM units.
	"tiny": {rtlPaper: 50, hpc: 10, lenet: 10, yolo: 10,
		quickRTL: 50, quickHPC: 10, quickLeNet: 10, quickYolo: 10,
		serve: 50, ops: []isa.Opcode{isa.OpFADD, isa.OpFSIN, isa.OpGLD, isa.OpBRA},
		minPasses: 1, setupReps: 1},
}

// shape is what one pass of a workload runs.
type shape struct {
	rtl         int          // faults per RTL campaign; 0 = no RTL phase
	ops         []isa.Opcode // RTL opcode subset; nil = all 12
	skipTMXM    bool
	hpc         int // injections per app per model; 0 = no HPC phase
	apps        int // HPC apps taken from the head of the suite; 0 = all six
	lenet, yolo int // injections per model; 0 = network skipped
	pipeline    bool
	serve       bool
}

func shapeOf(workload string, sz sizes) (shape, error) {
	switch workload {
	case "rtl_paper":
		return shape{rtl: sz.rtlPaper, ops: sz.ops}, nil
	case "sw_hpc":
		return shape{hpc: sz.hpc}, nil
	case "sw_cnn":
		return shape{lenet: sz.lenet, yolo: sz.yolo}, nil
	case "pipeline_quick":
		return shape{rtl: sz.quickRTL, ops: sz.ops, hpc: sz.quickHPC, lenet: sz.quickLeNet, yolo: sz.quickYolo, pipeline: true}, nil
	case "serve_fabric":
		return shape{rtl: sz.serve, ops: sz.ops, serve: true}, nil
	}
	return shape{}, fmt.Errorf("unknown workload %q", workload)
}

// env is the part of a run every pass shares.
type env struct {
	ctx     context.Context
	workers int    // GOMAXPROCS and every engine Workers field
	dbPath  string // the committed syndrome database
	tmp     string // scratch directory, removed on exit

	// ref switches every accelerator layer off, turning the engines into
	// the naive reference the cross-check compares the defaults against.
	ref bool
}

type netCase struct {
	name     string
	net      *cnn.Network
	input    []float32
	critical func(golden, faulty []float32) bool
}

// state is what set-up builds and passes reuse.
type state struct {
	db    *syndrome.DB
	suite []*apps.Workload
	nets  []netCase
	srv   *server
}

func (st *state) close() {
	if st != nil && st.srv != nil {
		st.srv.close()
	}
}

// setup is what setup_s times: build, then one tiny-scale warm-up pass.
func setup(e *env, workload string, sh shape, seed uint64) (*state, error) {
	st, err := build(e, sh)
	if err != nil {
		return nil, err
	}
	warm, err := shapeOf(workload, scales["tiny"])
	if err == nil {
		_, err = runPass(e, st, warm, seed, nil, nil)
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return st, nil
}

// build makes a shape's in-process state: the committed syndrome DB where
// the software phases sample from it, the applications, networks and
// kasm programs, and the running service for serve_fabric.
func build(e *env, sh shape) (*state, error) {
	st := &state{}
	software := sh.hpc > 0 || sh.lenet > 0 || sh.yolo > 0
	if software && !sh.pipeline {
		db, err := gpufi.LoadDB(e.dbPath)
		if err != nil {
			return nil, err
		}
		st.db = db
	}
	if sh.hpc > 0 {
		st.suite = gpufi.HPCSuite()
		if sh.apps > 0 {
			st.suite = st.suite[:sh.apps]
		}
	}
	if sh.lenet > 0 {
		st.nets = append(st.nets, netCase{"LeNet", gpufi.NewLeNetLite(), gpufi.LeNetInput(0), gpufi.LeNetCritical})
	}
	if sh.yolo > 0 {
		st.nets = append(st.nets, netCase{"Yolo", gpufi.NewYoloLite(), gpufi.YoloInput(0), gpufi.YoloCritical})
	}
	if sh.rtl > 0 {
		if _, err := rtlfi.CharacterizedPrograms(); err != nil {
			return nil, err
		}
		if _, err := mxm.Build(mxm.Tile); err != nil {
			return nil, err
		}
	}
	if sh.serve {
		srv, err := startServer(e)
		if err != nil {
			return nil, err
		}
		st.srv = srv
	}
	return st, nil
}

// passOut is one pass's result.
type passOut struct {
	faults int                // faults classified Masked/SDC/DUE
	ops    int                // plan units, campaigns, reports or jobs attempted
	stats  passStats          // digested
	exact  map[string]float64 // engine counters that repeat bit-for-bit
	phases map[string]float64 // wall seconds per pipeline phase

	char *core.Characterization // the RTL phase's result, for the probes

	// Left for finish, so that the benchmark's own bookkeeping stays out
	// of the timed pass: the database to project into the digest, and a
	// serve_fabric job's undecoded result.
	db        *syndrome.DB
	jobResult json.RawMessage
}

// finish completes a pass's statistics after its wall time was taken.
func (out *passOut) finish() error {
	if out.jobResult != nil {
		if err := out.addJobResult(out.jobResult); err != nil {
			return err
		}
		out.jobResult = nil
	}
	if out.db != nil {
		proj, err := dbProjection(out.db)
		if err != nil {
			return err
		}
		out.stats.DB, out.db = proj, nil
	}
	return nil
}

// runPass executes one pass. With a nil tracer it calls the public entry
// points; with a tracer it unrolls each into the layer calls it is
// documented to be and feeds col.
func runPass(e *env, st *state, sh shape, seed uint64, tr *tracer, col *collector) (*passOut, error) {
	out := &passOut{exact: map[string]float64{}, phases: map[string]float64{}}
	if sh.serve {
		return out, st.srv.jobPass(e, sh, seed, tr, col, out)
	}
	phase := func(name string, f func() error) error {
		id := tr.begin("pipeline." + name)
		t0 := time.Now()
		err := f()
		out.phases[name] = time.Since(t0).Seconds()
		tr.end(id, nil)
		if err != nil {
			return fmt.Errorf("%s phase: %w", name, err)
		}
		return nil
	}
	db := st.db
	var char *core.Characterization
	if sh.rtl > 0 {
		if err := phase("rtl", func() (err error) {
			char, err = rtlPhase(e, sh, seed, tr, col, out)
			return err
		}); err != nil {
			return out, err
		}
		db, out.char = char.DB, char
	}
	if sh.pipeline {
		if err := phase("db", func() (err error) {
			db, err = dbPhase(e, char.DB, seed, tr)
			return err
		}); err != nil {
			return out, err
		}
	}
	if sh.hpc > 0 {
		if err := phase("hpc", func() error { return hpcPhase(e, st, sh, db, seed, tr, col, out) }); err != nil {
			return out, err
		}
	}
	if len(st.nets) > 0 {
		if err := phase("cnn", func() error { return cnnPhase(e, st, sh, db, seed, tr, col, out) }); err != nil {
			return out, err
		}
	}
	if sh.pipeline {
		if err := phase("report", func() error { return reportPhase(char, tr, out) }); err != nil {
			return out, err
		}
	}
	return out, nil
}

func (sh shape) rtlConfig(e *env, seed uint64) core.CharacterizeConfig {
	return core.CharacterizeConfig{
		FaultsPerCampaign: sh.rtl, Seed: seed, Workers: e.workers,
		Ops: sh.ops, SkipTMXM: sh.skipTMXM,
		NoPrune: e.ref, NoCollapse: e.ref, NoBitParallel: e.ref,
	}
}

func rtlPhase(e *env, sh shape, seed uint64, tr *tracer, col *collector, out *passOut) (*core.Characterization, error) {
	cfg := sh.rtlConfig(e, seed)
	var char *core.Characterization
	var err error
	if tr == nil {
		char, err = gpufi.CharacterizeCtx(e.ctx, cfg)
	} else {
		char, err = tracedCharacterize(e, cfg, tr, col)
	}
	if err != nil {
		return nil, err
	}
	out.addRTL(char)
	return char, nil
}

// tracedCharacterize is core.CharacterizeCtx unrolled: Plan, then RunUnit
// and AddUnit per unit, each under a span.
func tracedCharacterize(e *env, cfg core.CharacterizeConfig, tr *tracer, col *collector) (*core.Characterization, error) {
	id := tr.begin("core.plan")
	plan := core.Plan(cfg)
	tr.end(id, map[string]float64{"units": float64(len(plan))})
	char := &core.Characterization{DB: syndrome.New()}
	for _, u := range plan {
		id := tr.begin("rtlfi.run_unit")
		t0 := time.Now()
		var first atomic.Int64 // ns from the call to the first Progress callback
		res, err := core.RunUnit(e.ctx, u, e.workers, func(int, int) {
			first.CompareAndSwap(0, int64(time.Since(t0)))
		})
		wall := time.Since(t0)
		if err != nil {
			tr.end(id, nil)
			return nil, fmt.Errorf("core: %s: %w", u.Name(), err)
		}
		tel := res.Telemetry()
		tr.end(id, map[string]float64{
			"faults": float64(tel.Injections), "sim_cycles": float64(tel.SimCycles),
			"skipped_cycles": float64(tel.SkippedCycles), "pruned": float64(tel.PrunedFaults),
			"collapsed": float64(tel.CollapsedFaults), "vector": float64(tel.VectorFaults),
		})
		id = tr.begin("syndrome.add_unit")
		t1 := time.Now()
		char.AddUnit(res)
		build := time.Since(t1)
		tr.end(id, nil)
		col.unit(u, tel.Injections, wall, time.Duration(first.Load()), build)
	}
	return char, nil
}

// addRTL records a characterisation's statistics and engine counters.
func (out *passOut) addRTL(char *core.Characterization) {
	for _, r := range char.Micro {
		u := core.Unit{Kind: core.UnitMicro, Op: r.Spec.Op, Range: r.Spec.Range, Module: r.Spec.Module}
		out.stats.Units = append(out.stats.Units, unitStat{
			Unit: u.Name(), Seed: r.Spec.Seed, Tally: r.Tally, Cycles: r.SimCycles + r.SkippedCycles,
		})
	}
	for _, r := range char.TMXM {
		u := core.Unit{Kind: core.UnitTMXM, Module: r.Spec.Module, Tile: r.Spec.Kind}
		out.stats.Units = append(out.stats.Units, unitStat{
			Unit: u.Name(), Seed: r.Spec.Seed, Tally: r.Tally, Cycles: r.SimCycles + r.SkippedCycles,
		})
	}
	tel := char.Telemetry()
	out.faults += tel.Injections
	out.ops += len(char.Micro) + len(char.TMXM)
	out.addRTLCounters(tel)
	out.db = char.DB
}

func (out *passOut) addRTLCounters(tel core.Telemetry) {
	out.exact["rtl.sim_cycles"] += float64(tel.SimCycles)
	out.exact["rtl.skipped_cycles"] += float64(tel.SkippedCycles)
	out.exact["rtlfi.pruned_faults"] += float64(tel.PrunedFaults)
	out.exact["rtlfi.collapsed_faults"] += float64(tel.CollapsedFaults)
	out.exact["rtlfi.vector_faults"] += float64(tel.VectorFaults)
	out.exact["rtlfi.marches"] += float64(tel.Marches)
	out.exact["rtlfi.injections"] += float64(tel.Injections)
}

// dbPhase is the pipeline's hand-over: the characterisation's database is
// saved, loaded back, and the loaded copy feeds the software phases.
func dbPhase(e *env, db *syndrome.DB, seed uint64, tr *tracer) (*syndrome.DB, error) {
	path := filepath.Join(e.tmp, fmt.Sprintf("syndromes-%d.json", seed))
	defer os.Remove(path)
	id := tr.begin("syndrome.save")
	err := gpufi.SaveDB(db, path)
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	id = tr.begin("syndrome.load")
	loaded, err := gpufi.LoadDB(path)
	tr.end(id, nil)
	return loaded, err
}

func (e *env) evalConfig(injections int, seed uint64) core.EvalConfig {
	return core.EvalConfig{
		Injections: injections, Seed: seed, Workers: e.workers,
		NoPrune: e.ref, NoCollapse: e.ref, NoFastPath: e.ref,
	}
}

// In a pipeline pass the software phases sample the database the RTL
// phase just built, and that database's sample reservoirs are in
// worker-merge order (see dbProjection). The syndrome and tile campaigns
// of such a pass therefore depend on the worker count, so only its
// bit-flip campaigns, which never read the database, are digested; the
// others are still run, timed, counted and tally-checked.

func hpcPhase(e *env, st *state, sh shape, db *syndrome.DB, seed uint64, tr *tracer, col *collector, out *passOut) error {
	cfg := e.evalConfig(sh.hpc, seed)
	var evals []*core.AppEvaluation
	var err error
	if tr == nil {
		evals, err = gpufi.EvaluateHPCCtx(e.ctx, db, st.suite, cfg)
	} else {
		evals, err = tracedEvaluateHPC(e, db, st.suite, cfg, tr, col)
	}
	if err != nil {
		return err
	}
	for _, ev := range evals {
		for _, r := range []*swfi.Result{ev.BitFlip, ev.Syndrome} {
			cs := campStat{
				App: ev.Name, Model: r.Campaign.Model.String(), Tally: r.Tally, PVF: r.PVF(),
				Instrs: r.SimInstrs + r.SkippedInstrs,
			}
			if sh.pipeline && r.Campaign.Model.NeedsDB() {
				out.stats.Undigested = append(out.stats.Undigested, cs)
			} else {
				out.stats.HPC = append(out.stats.HPC, cs)
			}
			out.addSW(r.Tally.Injections, r.SimInstrs, r.SkippedInstrs, r.PrunedFaults, r.CollapsedFaults)
		}
	}
	return nil
}

// tracedEvaluateHPC is core.EvaluateHPCCtx unrolled: PrepareWorkload once
// per application, then one RunCtx per fault model on the shared
// preparation, with the same derived seeds.
func tracedEvaluateHPC(e *env, db *syndrome.DB, suite []*apps.Workload, cfg core.EvalConfig, tr *tracer, col *collector) ([]*core.AppEvaluation, error) {
	var evals []*core.AppEvaluation
	for i, w := range suite {
		id := tr.begin("swfi.prepare")
		t0 := time.Now()
		prep, err := swfi.PrepareWorkload(w)
		col.prepare(w.Name, time.Since(t0), false)
		tr.end(id, nil)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", w.Name, err)
		}
		ev := &core.AppEvaluation{Name: w.Name, Domain: w.Domain, Size: w.Size}
		for m, model := range []swfi.FaultModel{swfi.ModelBitFlip, swfi.ModelSyndrome} {
			c := swfi.Campaign{
				Workload: w, Model: model, Prepared: prep,
				Injections: cfg.Injections, Seed: cfg.Seed + uint64(i)*2 + uint64(m), Workers: cfg.Workers,
				NoPrune: cfg.NoPrune, NoCollapse: cfg.NoCollapse, NoFastPath: cfg.NoFastPath,
			}
			if model.NeedsDB() {
				c.DB = db
			}
			id := tr.begin("swfi.campaign")
			t0 := time.Now()
			res, err := swfi.RunCtx(e.ctx, c)
			wall := time.Since(t0)
			if err != nil {
				tr.end(id, nil)
				return nil, fmt.Errorf("core: %s %s: %w", w.Name, model, err)
			}
			tr.end(id, swCounts(res.Tally.Injections, res.SimInstrs, res.SkippedInstrs, res.PrunedFaults, res.CollapsedFaults))
			col.campaign(w.Name, []string{"bitflip", "syndrome"}[m], res.Tally.Injections, wall)
			if m == 0 {
				ev.BitFlip = res
			} else {
				ev.Syndrome = res
			}
		}
		evals = append(evals, ev)
	}
	return evals, nil
}

func swCounts(inj int, sim, skipped, pruned, collapsed uint64) map[string]float64 {
	return map[string]float64{
		"injections": float64(inj), "sim_instrs": float64(sim), "skipped_instrs": float64(skipped),
		"pruned": float64(pruned), "collapsed": float64(collapsed),
	}
}

func (out *passOut) addSW(inj int, sim, skipped, pruned, collapsed uint64) {
	out.faults += inj
	out.ops++
	out.exact["swfi.sim_instrs"] += float64(sim)
	out.exact["swfi.skipped_instrs"] += float64(skipped)
	out.exact["swfi.pruned_faults"] += float64(pruned)
	out.exact["swfi.collapsed_faults"] += float64(collapsed)
	out.exact["swfi.injections"] += float64(inj)
}

func cnnPhase(e *env, st *state, sh shape, db *syndrome.DB, seed uint64, tr *tracer, col *collector, out *passOut) error {
	for _, nc := range st.nets {
		inj := sh.lenet
		if nc.name == "Yolo" {
			inj = sh.yolo
		}
		cfg := e.evalConfig(inj, seed)
		var ev *core.CNNEvaluation
		var err error
		if tr == nil {
			ev, err = gpufi.EvaluateCNNCtx(e.ctx, db, nc.name, nc.net, nc.input, nc.critical, cfg)
		} else {
			ev, err = tracedEvaluateCNN(e, db, nc, cfg, tr, col)
		}
		if err != nil {
			return err
		}
		for _, r := range []*swfi.CNNResult{ev.BitFlip, ev.Syndrome, ev.Tile} {
			cs := campStat{
				App: nc.name, Model: r.Model.String(), Tally: r.Tally, PVF: r.PVF(),
				Critical: r.CriticalSDC, Instrs: r.SimInstrs + r.SkippedInstrs,
			}
			if sh.pipeline && r.Model != swfi.CNNBitFlip {
				out.stats.Undigested = append(out.stats.Undigested, cs)
			} else {
				out.stats.CNN = append(out.stats.CNN, cs)
			}
			out.addSW(r.Tally.Injections, r.SimInstrs, r.SkippedInstrs, r.PrunedFaults, r.CollapsedFaults)
		}
	}
	return nil
}

// tracedEvaluateCNN is core.EvaluateCNNCtx unrolled: PrepareCNN, then the
// three fault models on the shared preparation, with the same seeds.
func tracedEvaluateCNN(e *env, db *syndrome.DB, nc netCase, cfg core.EvalConfig, tr *tracer, col *collector) (*core.CNNEvaluation, error) {
	id := tr.begin("swfi.prepare_cnn")
	t0 := time.Now()
	prep, err := swfi.PrepareCNN(nc.net, nc.input)
	col.prepare(nc.name, time.Since(t0), true)
	tr.end(id, nil)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", nc.name, err)
	}
	ev := &core.CNNEvaluation{Name: nc.name}
	models := []struct {
		model swfi.CNNModel
		label string
		into  **swfi.CNNResult
	}{
		{swfi.CNNBitFlip, "bitflip", &ev.BitFlip},
		{swfi.CNNSyndrome, "syndrome", &ev.Syndrome},
		{swfi.CNNTile, "tile", &ev.Tile},
	}
	for m, mc := range models {
		id := tr.begin("swfi.cnn_campaign")
		t0 := time.Now()
		res, err := swfi.RunCNNCtx(e.ctx, swfi.CNNCampaign{
			Net: nc.net, Input: nc.input, Model: mc.model, DB: db, Prepared: prep,
			Injections: cfg.Injections, Seed: cfg.Seed + 11 + uint64(m), Workers: cfg.Workers,
			NoPrune: cfg.NoPrune, NoCollapse: cfg.NoCollapse, NoFastPath: cfg.NoFastPath,
			Critical: nc.critical,
		})
		wall := time.Since(t0)
		if err != nil {
			tr.end(id, nil)
			return nil, err
		}
		tr.end(id, swCounts(res.Tally.Injections, res.SimInstrs, res.SkippedInstrs, res.PrunedFaults, res.CollapsedFaults))
		col.campaign(nc.name, mc.label, res.Tally.Injections, wall)
		*mc.into = res
	}
	return ev, nil
}

// reportPhase derives the pipeline's deliverables from the
// characterisation: the AVF table, the module ranking, the FIT estimate
// and every campaign's general-report row.
func reportPhase(char *core.Characterization, tr *tracer, out *passOut) error {
	id := tr.begin("core.reports")
	defer tr.end(id, nil)
	const rawFITPerBit = 1e-4 // an assumed technology rate; only its products are digested
	blob, err := json.Marshal(struct {
		AVF  []core.AVFRow
		Rank []core.ModuleCriticality
		FIT  []core.FITEstimate
	}{char.AVFTable(), char.RankModules(), char.EstimateFIT(rawFITPerBit)})
	if err != nil {
		return err
	}
	for _, r := range char.Micro {
		if err := r.WriteGeneralReport(io.Discard); err != nil {
			return err
		}
	}
	out.stats.Reports = blob
	out.ops++
	return nil
}
