// Package jobs turns the fire-and-forget campaign engines into a
// long-running job service. Submitted campaigns (RTL characterisation,
// HPC software injection, CNN injection) are queued on a bounded worker
// pool, report fault-level progress, can be cancelled mid-run, and
// journal their completed work units to a JSON checkpoint directory so a
// restarted service resumes them where they stopped.
//
// Resumption is deterministic: every work unit's engine seed is derived
// from the job seed and the unit's stable name (or fixed at planning time
// for RTL units), never handed out sequentially at run time, and the
// per-injection RNG streams inside the engines are themselves derived
// from (seed, injection index). A resumed job therefore produces a final
// result bit-identical to the same job run uninterrupted.
package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
	"gpufi/internal/core"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/rtlfi"
	"gpufi/internal/stats"
	"gpufi/internal/swfi"
	"gpufi/internal/syndrome"
)

// Kind selects the campaign family a job runs.
type Kind string

// Job kinds.
const (
	KindCharacterize Kind = "characterize" // RTL phase: build a syndrome DB
	KindHPC          Kind = "hpc"          // software injection into HPC workloads
	KindCNN          Kind = "cnn"          // software injection into a CNN
)

// AppSpec names one HPC workload and optionally overrides its size; zero
// sizes use the suite defaults (the scaled Table III sizes).
type AppSpec struct {
	Name string `json:"name"`
	N    int    `json:"n,omitempty"` // primary size (matrix dim, elements, boxes)
	M    int    `json:"m,omitempty"` // secondary size (Lava per-box, Hotspot iterations)
}

// Request describes a campaign job. It is the POST /jobs payload and is
// stored verbatim in the checkpoint journal, so a resumed job re-plans
// exactly the work the original submission asked for.
type Request struct {
	Kind Kind   `json:"kind"`
	Seed uint64 `json:"seed"`

	// Characterize jobs: accelerator escape hatch. NoPrune disables RTL
	// dead-site pruning; bit-identical either way. Software jobs ignore it.
	NoPrune bool `json:"no_prune,omitempty"`

	// Deprecated: accepted and ignored; kept until bench/ stops sending it (ROADMAP 1(a)).
	NoCollapse bool `json:"no_collapse,omitempty"`

	// Software jobs: force the reference (Tier 0) interpreter for every
	// emulator run instead of the pre-decoded fast path; results are
	// bit-identical either way.
	NoFastPath bool `json:"no_fast_path,omitempty"`

	// Characterize jobs.
	Faults        int      `json:"faults,omitempty"`      // per micro campaign; default 2000
	TMXMFaults    int      `json:"tmxm_faults,omitempty"` // per t-MxM campaign; default Faults
	SkipTMXM      bool     `json:"skip_tmxm,omitempty"`
	NoBitParallel bool     `json:"no_bit_parallel,omitempty"` // disable bit-parallel marching (bit-identical results)
	Ops           []string `json:"ops,omitempty"`             // opcode subset; default all 12
	Ranges        []string `json:"ranges,omitempty"`          // input-range subset; default S, M, L

	// HPC and CNN jobs.
	Injections int       `json:"injections,omitempty"` // per unit; default 500
	Apps       []AppSpec `json:"apps,omitempty"`       // HPC: default all six suite apps
	Models     []string  `json:"models,omitempty"`     // HPC: bitflip|bitflip2|syndrome|syndrome-emp; CNN: bitflip|syndrome|tile
	Network    string    `json:"network,omitempty"`    // CNN: LeNet or Yolo
	DBPath     string    `json:"db,omitempty"`         // syndrome DB file, required by syndrome/tile models
}

// CharUnitResult summarises one completed characterisation unit; the
// syndromes themselves accumulate in the job's database. The engine
// counters feed the job status aggregate; their injection count is not
// journalled (Tally carries it).
type CharUnitResult struct {
	Unit  string       `json:"unit"`
	Seed  uint64       `json:"seed"`
	Tally faults.Tally `json:"tally"`
	rtlfi.Counters
}

// HPCUnitResult is one completed (application, fault model) campaign.
// The instruction counters feed the job status aggregate's sw telemetry
// block; as in CharUnitResult, Tally carries their injection count.
type HPCUnitResult struct {
	App   string       `json:"app"`
	Model string       `json:"model"`
	Seed  uint64       `json:"seed"`
	Tally faults.Tally `json:"tally"`
	PVF   float64      `json:"pvf"`
	CILo  float64      `json:"ci_lo"`
	CIHi  float64      `json:"ci_hi"`
	swfi.Counters
}

// CNNUnitResult is one completed (network, fault model) campaign; see
// HPCUnitResult for the counters.
type CNNUnitResult struct {
	Network       string       `json:"network"`
	Model         string       `json:"model"`
	Seed          uint64       `json:"seed"`
	Tally         faults.Tally `json:"tally"`
	PVF           float64      `json:"pvf"`
	CriticalSDC   int          `json:"critical_sdc"`
	CriticalShare float64      `json:"critical_share"`
	swfi.Counters
}

// Result is a finished job's deliverable: the per-unit results in plan
// order, plus the syndrome database for characterize jobs.
type Result struct {
	Kind  Kind              `json:"kind"`
	Units []json.RawMessage `json:"units"`
	DB    *syndrome.DB      `json:"db,omitempty"`
}

// unit is one schedulable, checkpointable slice of a job. db is the loaded
// syndrome database of a job whose fault models need one.
type unit struct {
	name  string
	total int       // progress weight: faults or injections
	char  core.Unit // characterize jobs: the campaign itself, for leasing to fabric workers
	run   func(ctx context.Context, db *syndrome.DB, workers int, progress func(done, total int)) (outcome, error)
}

// outcome is what executing a unit yields for the commit step to fold into
// the job: a software unit's journal record and live throughput, or a
// characterisation unit's engine result, ingested there to get its record.
type outcome struct {
	raw  json.RawMessage
	sw   swLive
	char *core.UnitResult
}

// swLive accumulates the counters and wall-clock time of the
// software-campaign units run in this process. It deliberately lives
// outside the checkpoint journal: unit results must stay bit-identical
// across restarts and fabric merges, and wall time is not. The status
// block's MIPS rates therefore cover live work only — units restored from
// a journal contribute their instruction counters but no duration.
type swLive struct {
	swfi.Counters
	elapsed time.Duration
}

// program is a compiled job: its ordered units plus whether running them
// needs a syndrome database loaded from Request.DBPath.
type program struct {
	units   []unit
	needsDB bool
}

// deriveSeed maps (jobSeed, unitName) to an independent engine seed via
// an FNV-1a hash fed through the splitmix64 generator. Unit seeds thus
// depend only on the request, never on execution order, which is what
// makes interrupted jobs resume bit-identically.
func deriveSeed(seed uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return stats.NewRNG(seed ^ h).Uint64()
}

// compile validates a request and expands it into its execution program.
// It performs no I/O, so it doubles as submission-time validation.
func compile(req Request) (*program, error) {
	if req.Faults < 0 || req.TMXMFaults < 0 || req.Injections < 0 {
		return nil, fmt.Errorf("jobs: faults, tmxm_faults and injections must not be negative")
	}
	var (
		prog *program
		err  error
	)
	switch req.Kind {
	case KindCharacterize:
		prog, err = compileCharacterize(req)
	case KindHPC:
		prog, err = compileHPC(req)
	case KindCNN:
		prog, err = compileCNN(req)
	default:
		return nil, fmt.Errorf("jobs: unknown kind %q (want characterize, hpc or cnn)", req.Kind)
	}
	if err != nil {
		return nil, err
	}
	if len(prog.units) == 0 {
		return nil, fmt.Errorf("jobs: %s request plans no work units", req.Kind)
	}
	if prog.needsDB && req.DBPath == "" {
		return nil, fmt.Errorf("jobs: %s job uses a syndrome fault model; set \"db\" to a syndrome database path", req.Kind)
	}
	return prog, nil
}

func compileCharacterize(req Request) (*program, error) {
	cfg := core.CharacterizeConfig{
		FaultsPerCampaign: req.Faults,
		TMXMFaults:        req.TMXMFaults,
		Seed:              req.Seed,
		SkipTMXM:          req.SkipTMXM,
		NoPrune:           req.NoPrune,
		NoBitParallel:     req.NoBitParallel,
	}
	for _, name := range req.Ops {
		op, ok := parseOp(name)
		if !ok {
			return nil, fmt.Errorf("jobs: unknown opcode %q", name)
		}
		cfg.Ops = append(cfg.Ops, op)
	}
	for _, name := range req.Ranges {
		rng, ok := parseRange(name)
		if !ok {
			return nil, fmt.Errorf("jobs: unknown input range %q (want S, M or L)", name)
		}
		cfg.Ranges = append(cfg.Ranges, rng)
	}
	prog := &program{}
	for _, cu := range core.Plan(cfg) {
		prog.units = append(prog.units, unit{
			name: cu.Name(), total: cu.Faults, char: cu,
			run: func(ctx context.Context, _ *syndrome.DB, workers int, progress func(done, total int)) (outcome, error) {
				res, err := core.RunUnit(ctx, cu, workers, progress)
				return outcome{char: res}, err
			},
		})
	}
	return prog, nil
}

// ingestCharUnit folds one executed characterisation unit into the job's
// accumulating syndrome database and returns its journal record. Its one
// call is the commit step, whether the unit ran in this process or the
// result arrived from a fabric worker, which is what keeps the two
// bit-identical.
func ingestCharUnit(db *charDB, cu core.Unit, res *core.UnitResult) (json.RawMessage, error) {
	if err := db.ingest(res); err != nil {
		return nil, err
	}
	return json.Marshal(CharUnitResult{Unit: cu.Name(), Seed: cu.Seed, Tally: res.Tally(), Counters: res.Telemetry()})
}

func compileHPC(req Request) (*program, error) {
	specs := req.Apps
	if len(specs) == 0 {
		for _, w := range apps.Suite() {
			specs = append(specs, AppSpec{Name: w.Name})
		}
	}
	models := req.Models
	if len(models) == 0 {
		models = []string{"bitflip", "syndrome"}
	}
	injections := req.Injections
	if injections == 0 {
		injections = 500
	}
	prog := &program{}
	for _, spec := range specs {
		if _, err := buildApp(spec); err != nil {
			return nil, err
		}
		for _, mname := range models {
			model, ok := parseHPCModel(mname)
			if !ok {
				return nil, fmt.Errorf("jobs: unknown HPC fault model %q (want bitflip, bitflip2, syndrome or syndrome-emp)", mname)
			}
			if model.NeedsDB() {
				prog.needsDB = true
			}
			name := spec.Name + "/" + mname
			seed := deriveSeed(req.Seed, name)
			prog.units = append(prog.units, unit{
				name:  name,
				total: injections,
				run: func(ctx context.Context, db *syndrome.DB, workers int, progress func(done, total int)) (outcome, error) {
					w, err := buildApp(spec)
					if err != nil {
						return outcome{}, err
					}
					res, err := swfi.RunCtx(ctx, swfi.Campaign{
						Workload: w, Model: model, DB: db,
						Injections: injections, Seed: seed, Workers: workers,
						NoFastPath: req.NoFastPath, Progress: progress,
					})
					if err != nil {
						return outcome{}, err
					}
					lo, hi := res.PVFCI()
					raw, err := json.Marshal(HPCUnitResult{
						App: spec.Name, Model: mname, Seed: seed,
						Tally: res.Tally, PVF: res.PVF(), CILo: lo, CIHi: hi,
						Counters: res.Counters,
					})
					return outcome{raw: raw, sw: swLive{res.Counters, res.Elapsed}}, err
				},
			})
		}
	}
	return prog, nil
}

func compileCNN(req Request) (*program, error) {
	network := req.Network
	if network == "" {
		network = "LeNet"
	}
	if network != "LeNet" && network != "Yolo" {
		return nil, fmt.Errorf("jobs: unknown network %q (want LeNet or Yolo)", network)
	}
	models := req.Models
	if len(models) == 0 {
		models = []string{"bitflip", "syndrome", "tile"}
	}
	injections := req.Injections
	if injections == 0 {
		injections = 500
	}
	prog := &program{}
	for _, mname := range models {
		model, ok := parseCNNModel(mname)
		if !ok {
			return nil, fmt.Errorf("jobs: unknown CNN fault model %q (want bitflip, syndrome or tile)", mname)
		}
		if model != swfi.CNNBitFlip {
			prog.needsDB = true
		}
		name := network + "/" + mname
		seed := deriveSeed(req.Seed, name)
		prog.units = append(prog.units, unit{
			name:  name,
			total: injections,
			run: func(ctx context.Context, db *syndrome.DB, workers int, progress func(done, total int)) (outcome, error) {
				net, input, critical := buildNetwork(network)
				res, err := swfi.RunCNNCtx(ctx, swfi.CNNCampaign{
					Net: net, Input: input, Model: model, DB: db,
					Injections: injections, Seed: seed, Workers: workers,
					NoFastPath: req.NoFastPath, Critical: critical, Progress: progress,
				})
				if err != nil {
					return outcome{}, err
				}
				raw, err := json.Marshal(CNNUnitResult{
					Network: network, Model: mname, Seed: seed,
					Tally: res.Tally, PVF: res.PVF(),
					CriticalSDC: res.CriticalSDC, CriticalShare: res.CriticalShare(),
					Counters: res.Counters,
				})
				return outcome{raw: raw, sw: swLive{res.Counters, res.Elapsed}}, err
			},
		})
	}
	return prog, nil
}

// buildApp constructs a fresh workload for a spec; fresh per run so
// concurrent jobs never share emulator-visible state. Constructor panics
// (the app builders reject unusable sizes that way) become validation
// errors so a bad size in a request cannot take down a handler.
func buildApp(spec AppSpec) (w *apps.Workload, err error) {
	defer func() {
		if r := recover(); r != nil {
			w, err = nil, fmt.Errorf("jobs: bad %s size: %v", spec.Name, r)
		}
	}()
	n, m := spec.N, spec.M
	or := func(v, d int) int {
		if v > 0 {
			return v
		}
		return d
	}
	switch spec.Name {
	case "MxM":
		return apps.NewMxM(or(n, 64)), nil
	case "Lava":
		return apps.NewLava(or(n, 2), or(m, 64)), nil
	case "Quicksort":
		return apps.NewQuicksort(or(n, 1024)), nil
	case "Hotspot":
		return apps.NewHotspot(or(n, 32), or(m, 16)), nil
	case "LUD":
		return apps.NewLUD(or(n, 32)), nil
	case "Gaussian":
		return apps.NewGaussian(or(n, 32)), nil
	default:
		return nil, fmt.Errorf("jobs: unknown application %q (want MxM, Lava, Quicksort, Hotspot, LUD or Gaussian)", spec.Name)
	}
}

func buildNetwork(name string) (*cnn.Network, []float32, func(a, b []float32) bool) {
	if name == "Yolo" {
		return cnn.NewYoloLite(), cnn.YoloInput(0), swfi.YoloCritical
	}
	return cnn.NewLeNetLite(), cnn.LeNetInput(0), swfi.LeNetCritical
}

func parseOp(s string) (isa.Opcode, bool) {
	for _, op := range isa.CharacterizedOpcodes() {
		if op.String() == s {
			return op, true
		}
	}
	return 0, false
}

func parseRange(s string) (faults.InputRange, bool) {
	for _, r := range faults.AllRanges() {
		if r.String() == s {
			return r, true
		}
	}
	return 0, false
}

func parseHPCModel(s string) (swfi.FaultModel, bool) {
	switch s {
	case "bitflip":
		return swfi.ModelBitFlip, true
	case "bitflip2":
		return swfi.ModelDoubleBitFlip, true
	case "syndrome":
		return swfi.ModelSyndrome, true
	case "syndrome-emp":
		return swfi.ModelSyndromeEmp, true
	default:
		return 0, false
	}
}

func parseCNNModel(s string) (swfi.CNNModel, bool) {
	switch s {
	case "bitflip":
		return swfi.CNNBitFlip, true
	case "syndrome":
		return swfi.CNNSyndrome, true
	case "tile":
		return swfi.CNNTile, true
	default:
		return 0, false
	}
}
