// Package core implements the paper's primary contribution: the two-level
// fault-injection framework (Fig. 2). The expensive RTL characterisation
// runs once, over the 12 common SASS instructions and the t-MxM mini-app,
// and populates the syndrome database; the fast software injector then
// propagates those RTL-accurate fault effects through complete HPC
// applications and CNNs, producing the Program Vulnerability Factors of
// Fig. 10 / Table III at a cost reduced from years of RTL simulation to
// minutes (§VI).
package core

import (
	"context"
	"fmt"
	"sort"

	"gpufi/internal/apps"
	"gpufi/internal/campaign"
	"gpufi/internal/cnn"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/mxm"
	"gpufi/internal/rtl"
	"gpufi/internal/rtlfi"
	"gpufi/internal/swfi"
	"gpufi/internal/syndrome"
)

// CharacterizeConfig controls the RTL phase. The zero value is usable for
// quick runs; the paper's campaigns use 12000+ faults each.
type CharacterizeConfig struct {
	FaultsPerCampaign int // default 2000
	TMXMFaults        int // default FaultsPerCampaign
	Seed              uint64
	Workers           int                 // CPU budget of the whole phase, split over the units in flight; 0 = one per CPU
	Ops               []isa.Opcode        // default: the 12 characterised opcodes
	Ranges            []faults.InputRange // default: S, M, L
	SkipTMXM          bool                // skip the t-MxM campaigns (micro-benchmarks only)
	NoPrune           bool                // disable dead-site pruning (see rtlfi.Spec.NoPrune)
	NoCollapse        bool                // Deprecated: ignored; kept until bench/ stops setting it (ROADMAP 1(a))
	NoBitParallel     bool                // disable bit-parallel marching (see rtlfi.Spec.NoBitParallel)

	// Progress, when non-nil, receives fault-level progress aggregated
	// over the whole characterisation plan (a campaign.Meter). It may be
	// called concurrently and calls may overtake each other; every call
	// carries a distinct done. done stays below total until the last unit
	// is ingested; the last call is (total, total).
	Progress func(done, total int)
}

func (c *CharacterizeConfig) defaults() {
	if c.FaultsPerCampaign == 0 {
		c.FaultsPerCampaign = 2000
	}
	if c.TMXMFaults == 0 {
		c.TMXMFaults = c.FaultsPerCampaign
	}
	if len(c.Ops) == 0 {
		c.Ops = isa.CharacterizedOpcodes()
	}
	if len(c.Ranges) == 0 {
		c.Ranges = faults.AllRanges()
	}
}

// Characterization is the output of the RTL phase: the syndrome database
// plus the raw campaign results backing Figs. 4–9 and Table II.
type Characterization struct {
	DB    *syndrome.DB
	Micro []*rtlfi.Result
	TMXM  []*rtlfi.TMXMResult
}

// UnitKind distinguishes the two campaign families of the RTL phase.
type UnitKind uint8

// Characterisation unit kinds.
const (
	UnitMicro UnitKind = iota // one (opcode, range, module) micro-benchmark campaign
	UnitTMXM                  // one (module, tile kind) t-MxM campaign
)

// Unit is one independently schedulable campaign of the characterisation
// plan. Its Seed is fixed at planning time, so units can be executed in
// any order — or skipped and re-run after an interruption — and still
// reproduce exactly the campaign an uninterrupted CharacterizeCtx would run.
type Unit struct {
	Kind          UnitKind
	Op            isa.Opcode        // UnitMicro only
	Range         faults.InputRange // UnitMicro only
	Module        faults.Module
	Tile          mxm.TileKind // UnitTMXM only
	Faults        int
	Seed          uint64
	NoPrune       bool // campaign results are bit-identical either way
	NoBitParallel bool // disable bit-parallel marching; bit-identical either way
}

// Name returns the unit's stable identifier, used as the checkpoint key
// by resumable campaign jobs.
func (u Unit) Name() string {
	if u.Kind == UnitTMXM {
		return fmt.Sprintf("tmxm/%s/%s", u.Module, u.Tile)
	}
	return fmt.Sprintf("micro/%s/%s/%s", u.Op, u.Range, u.Module)
}

// Plan expands a configuration into the ordered list of campaign units
// CharacterizeCtx would run, each with its derived seed.
func Plan(cfg CharacterizeConfig) []Unit {
	cfg.defaults()
	var units []Unit
	seed := cfg.Seed
	for _, op := range cfg.Ops {
		for _, rng := range cfg.Ranges {
			for _, mod := range faults.AllModules() {
				if !rtlfi.ModuleUsed(mod, op) {
					continue
				}
				seed++
				units = append(units, Unit{
					Kind: UnitMicro, Op: op, Range: rng, Module: mod,
					Faults: cfg.FaultsPerCampaign, Seed: seed,
					NoPrune: cfg.NoPrune, NoBitParallel: cfg.NoBitParallel,
				})
			}
		}
	}
	if cfg.SkipTMXM {
		return units
	}
	for _, mod := range []faults.Module{faults.ModSched, faults.ModPipe} {
		for _, kind := range mxm.AllTileKinds() {
			seed++
			units = append(units, Unit{
				Kind: UnitTMXM, Module: mod, Tile: kind,
				Faults: cfg.TMXMFaults, Seed: seed,
				NoPrune: cfg.NoPrune, NoBitParallel: cfg.NoBitParallel,
			})
		}
	}
	return units
}

// UnitResult is the outcome of one executed plan unit; exactly one of
// Micro and TMXM is set, matching Unit.Kind.
type UnitResult struct {
	Unit  Unit
	Micro *rtlfi.Result
	TMXM  *rtlfi.TMXMResult
}

// Tally returns the unit's outcome tally regardless of kind.
func (r *UnitResult) Tally() faults.Tally {
	if r.Micro != nil {
		return r.Micro.Tally
	}
	return r.TMXM.Tally
}

// Telemetry is the RTL campaign engine's accounting, aggregated over one
// or more campaigns; see rtlfi.Counters.
type Telemetry = rtlfi.Counters

// Telemetry returns the unit's engine counters regardless of kind.
func (r *UnitResult) Telemetry() Telemetry {
	if r.Micro != nil {
		return r.Micro.Counters
	}
	return r.TMXM.Counters
}

// Telemetry aggregates the engine counters over every campaign of the
// characterisation.
func (c *Characterization) Telemetry() Telemetry {
	var t Telemetry
	for _, r := range c.Micro {
		t.Merge(r.Counters)
	}
	for _, r := range c.TMXM {
		t.Merge(r.Counters)
	}
	return t
}

// RunUnit executes one plan unit with cancellation and fault-level
// progress reporting.
func RunUnit(ctx context.Context, u Unit, workers int, progress func(done, total int)) (*UnitResult, error) {
	switch u.Kind {
	case UnitMicro:
		res, err := rtlfi.RunMicroCtx(ctx, rtlfi.Spec{
			Op: u.Op, Range: u.Range, Module: u.Module,
			NumFaults: u.Faults, Seed: u.Seed, Workers: workers,
			NoPrune: u.NoPrune, NoBitParallel: u.NoBitParallel,
			Progress: progress,
		})
		if err != nil {
			return nil, err
		}
		return &UnitResult{Unit: u, Micro: res}, nil
	case UnitTMXM:
		res, err := rtlfi.RunTMXMCtx(ctx, rtlfi.TMXMSpec{
			Module: u.Module, Kind: u.Tile,
			NumFaults: u.Faults, Seed: u.Seed, Workers: workers,
			NoPrune: u.NoPrune, NoBitParallel: u.NoBitParallel,
			Progress: progress,
		})
		if err != nil {
			return nil, err
		}
		return &UnitResult{Unit: u, TMXM: res}, nil
	default:
		return nil, fmt.Errorf("core: unknown unit kind %d", u.Kind)
	}
}

// AddUnit ingests one completed plan unit into the characterisation and
// its syndrome database.
func (c *Characterization) AddUnit(res *UnitResult) {
	if res.Micro != nil {
		c.Micro = append(c.Micro, res.Micro)
		c.DB.AddMicro(res.Micro)
		return
	}
	c.TMXM = append(c.TMXM, res.TMXM)
	c.DB.AddTMXM(res.TMXM)
}

// CharacterizeCtx runs the complete RTL fault-injection phase: for every
// characterised opcode, input range and exercised module, one
// micro-benchmark campaign; plus t-MxM campaigns on the scheduler and
// pipeline for the three tile kinds (§V). It is cancellable and reports
// aggregated fault-level progress via cfg.Progress. cfg.Workers is the CPU budget of
// the whole phase: plan units run side by side, each on its share of it.
func CharacterizeCtx(ctx context.Context, cfg CharacterizeConfig) (*Characterization, error) {
	cfg.defaults()
	return runPlan(ctx, Plan(cfg), campaign.Workers(cfg.Workers), cfg.Progress)
}

// runPlan executes a plan on campaign.RunOrdered — up to workers units in
// flight sharing the budget, the first error in plan order returned — with
// AddUnit as the commit.
func runPlan(ctx context.Context, plan []Unit, workers int, progress func(done, total int)) (*Characterization, error) {
	out := &Characterization{DB: syndrome.New()}
	meter := campaign.Meter{Report: progress}
	for _, u := range plan {
		meter.Total += u.Faults
	}
	k, err := campaign.RunOrdered(ctx, len(plan), workers, workers,
		func(i, workers int) (*UnitResult, error) { return RunUnit(ctx, plan[i], workers, meter.Part()) },
		func(_ int, res *UnitResult) error { out.AddUnit(res); return nil })
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", plan[k].Name(), err)
	}
	meter.Finish()
	return out, nil
}

// AVFRow is one Fig. 4 data point: a module x instruction cell averaged
// over the input ranges.
type AVFRow struct {
	Module     faults.Module
	Op         isa.Opcode
	SDCSingle  float64
	SDCMulti   float64
	DUE        float64
	AvgThreads float64
}

// AVFTable aggregates the micro campaigns into Fig. 4 rows.
func (c *Characterization) AVFTable() []AVFRow {
	type key struct {
		mod faults.Module
		op  isa.Opcode
	}
	agg := map[key]*faults.Tally{}
	for _, res := range c.Micro {
		k := key{res.Spec.Module, res.Spec.Op}
		if agg[k] == nil {
			agg[k] = &faults.Tally{}
		}
		agg[k].Merge(res.Tally)
	}
	var rows []AVFRow
	for _, mod := range faults.AllModules() {
		for _, op := range isa.CharacterizedOpcodes() {
			t, ok := agg[key{mod, op}]
			if !ok {
				continue
			}
			n := float64(t.Injections)
			rows = append(rows, AVFRow{
				Module:     mod,
				Op:         op,
				SDCSingle:  float64(t.SDCSingle) / n,
				SDCMulti:   float64(t.SDCMulti) / n,
				DUE:        float64(t.DUEs) / n,
				AvgThreads: t.AvgThreads(),
			})
		}
	}
	return rows
}

// ModuleCriticality ranks modules by AVF weighted with module size, the
// paper's proxy for "likely source of most SDCs/DUEs" (§V-B: "functional
// units, having a huge size and high AVF, are likely to be the source of
// most SDCs, while pipelines are likely to be the cause of most DUEs").
type ModuleCriticality struct {
	Module      faults.Module
	Size        int
	AVFSDC      float64
	AVFDUE      float64
	WeightedSDC float64 // AVF x size
	WeightedDUE float64
}

// RankModules computes the hardening-priority ranking.
func (c *Characterization) RankModules() []ModuleCriticality {
	agg := map[faults.Module]*faults.Tally{}
	for _, res := range c.Micro {
		if agg[res.Spec.Module] == nil {
			agg[res.Spec.Module] = &faults.Tally{}
		}
		agg[res.Spec.Module].Merge(res.Tally)
	}
	var out []ModuleCriticality
	for _, mod := range faults.AllModules() {
		t, ok := agg[mod]
		if !ok {
			continue
		}
		size := rtl.ModuleBits(mod)
		mc := ModuleCriticality{
			Module: mod, Size: size,
			AVFSDC: t.AVFSDC(), AVFDUE: t.AVFDUE(),
		}
		mc.WeightedSDC = mc.AVFSDC * float64(size)
		mc.WeightedDUE = mc.AVFDUE * float64(size)
		out = append(out, mc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WeightedSDC > out[j].WeightedSDC })
	return out
}

// EvalConfig controls the software phase.
type EvalConfig struct {
	Injections int // per application per model; default 500
	Seed       uint64
	Workers    int

	// Deprecated: ignored; kept until bench/ stops setting it (ROADMAP 1(a)/2(c)).
	NoPrune bool

	// Deprecated: ignored; kept until bench/ stops setting it (ROADMAP 1(a)).
	NoCollapse bool

	// Deprecated: ignored; kept until bench/ stops setting it (ROADMAP 1(a)/2(b)).
	NoFastPath bool

	// Progress, when non-nil, receives injection-level progress
	// aggregated over all campaigns of the evaluation; the contract is
	// CharacterizeConfig.Progress's.
	Progress func(done, total int)
}

func (c *EvalConfig) defaults() {
	if c.Injections == 0 {
		c.Injections = 500
	}
}

// AppEvaluation is one Table III row: the PVF under the naive bit-flip
// model and under the RTL syndrome model.
type AppEvaluation struct {
	Name, Domain, Size string
	BitFlip            *swfi.Result
	Syndrome           *swfi.Result
}

// Underestimation is the paper's headline ratio: how much the bit-flip
// model understates the syndrome PVF (§VI reports up to 48%).
func (e *AppEvaluation) Underestimation() float64 {
	if e.Syndrome.PVF() == 0 {
		return 0
	}
	return (e.Syndrome.PVF() - e.BitFlip.PVF()) / e.Syndrome.PVF()
}

// EvaluateHPCCtx runs both fault models over the workloads (Fig. 10),
// cancellable, with aggregated injection-level progress via cfg.Progress.
func EvaluateHPCCtx(ctx context.Context, db *syndrome.DB, workloads []*apps.Workload, cfg EvalConfig) ([]*AppEvaluation, error) {
	cfg.defaults()
	meter := campaign.Meter{Total: len(workloads) * 2 * cfg.Injections, Report: cfg.Progress}
	var out []*AppEvaluation
	for i, w := range workloads {
		// Both fault models replay the same workload, so they share one
		// golden run and checkpoint trace.
		prep, err := swfi.PrepareWorkload(w)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", w.Name, err)
		}
		flip, err := swfi.RunCtx(ctx, swfi.Campaign{
			Workload: w, Model: swfi.ModelBitFlip, Prepared: prep,
			Injections: cfg.Injections, Seed: cfg.Seed + uint64(i)*2, Workers: cfg.Workers,
			Progress: meter.Part(),
		})
		if err != nil {
			return nil, fmt.Errorf("core: %s bit-flip: %w", w.Name, err)
		}
		syn, err := swfi.RunCtx(ctx, swfi.Campaign{
			Workload: w, Model: swfi.ModelSyndrome, DB: db, Prepared: prep,
			Injections: cfg.Injections, Seed: cfg.Seed + uint64(i)*2 + 1, Workers: cfg.Workers,
			Progress: meter.Part(),
		})
		if err != nil {
			return nil, fmt.Errorf("core: %s syndrome: %w", w.Name, err)
		}
		out = append(out, &AppEvaluation{
			Name: w.Name, Domain: w.Domain, Size: w.Size,
			BitFlip: flip, Syndrome: syn,
		})
	}
	meter.Finish()
	return out, nil
}

// CNNEvaluation is the CNN section of Table III plus the t-MxM model and
// the critical-SDC analysis of §VI.
type CNNEvaluation struct {
	Name     string
	BitFlip  *swfi.CNNResult
	Syndrome *swfi.CNNResult
	Tile     *swfi.CNNResult
}

// EvaluateCNNCtx runs the three fault models over one network,
// cancellable, with aggregated injection-level progress via cfg.Progress.
func EvaluateCNNCtx(ctx context.Context, db *syndrome.DB, name string, net *cnn.Network, input []float32,
	critical func(a, b []float32) bool, cfg EvalConfig) (*CNNEvaluation, error) {
	cfg.defaults()
	out := &CNNEvaluation{Name: name}
	// All three fault models replay the same network/input pair, so they
	// share one golden run and checkpoint trace.
	prep, err := swfi.PrepareCNN(net, input)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	meter := campaign.Meter{Total: 3 * cfg.Injections, Report: cfg.Progress}
	run := func(model swfi.CNNModel, seed uint64) (*swfi.CNNResult, error) {
		return swfi.RunCNNCtx(ctx, swfi.CNNCampaign{
			Net: net, Input: input, Model: model, DB: db, Prepared: prep,
			Injections: cfg.Injections, Seed: seed, Workers: cfg.Workers,
			Critical: critical, Progress: meter.Part(),
		})
	}
	if out.BitFlip, err = run(swfi.CNNBitFlip, cfg.Seed+11); err != nil {
		return nil, err
	}
	if out.Syndrome, err = run(swfi.CNNSyndrome, cfg.Seed+12); err != nil {
		return nil, err
	}
	if out.Tile, err = run(swfi.CNNTile, cfg.Seed+13); err != nil {
		return nil, err
	}
	meter.Finish()
	return out, nil
}

// FITEstimate combines a module's size-weighted AVF with a raw per-bit
// fault rate into a module-level FIT contribution — the evaluation the
// paper defers to future work for lack of public technology data ("the
// modules AVF should be weighted with the module relative size ... a more
// accurate evaluation would consider the fault rate of the different
// modules", §V-B/§VII). rawFITPerBit is the assumed technology FIT per
// flip-flop (from beam tests or vendor data).
type FITEstimate struct {
	Module faults.Module
	FFs    int
	SDCFIT float64
	DUEFIT float64
}

// EstimateFIT computes per-module FIT contributions.
func (c *Characterization) EstimateFIT(rawFITPerBit float64) []FITEstimate {
	var out []FITEstimate
	for _, mc := range c.RankModules() {
		out = append(out, FITEstimate{
			Module: mc.Module,
			FFs:    mc.Size,
			SDCFIT: rawFITPerBit * float64(mc.Size) * mc.AVFSDC,
			DUEFIT: rawFITPerBit * float64(mc.Size) * mc.AVFDUE,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SDCFIT > out[j].SDCFIT })
	return out
}
