// Package gpufi reproduces the two-level GPU fault-injection framework of
// "Revealing GPUs Vulnerabilities by Combining Register-Transfer and
// Software-Level Fault Injection" (dos Santos, Rodriguez Condia, Carro,
// Sonza Reorda, Rech — DSN 2021) as a self-contained Go library.
//
// The framework combines two abstraction levels:
//
//   - An RTL model of a G80-class streaming multiprocessor (the
//     FlexGripPlus analog) whose scheduler, pipeline registers, functional
//     units and SFUs are explicit flip-flop vectors. Single-transient
//     fault-injection campaigns over micro-benchmarks of the 12 most
//     common SASS instructions, plus the tiled-MxM mini-app, produce a
//     database of fault syndromes: the statistical distribution of
//     relative errors a low-level fault imprints on an instruction's
//     output, per opcode, operand range and corrupted module.
//
//   - A software-level injector (the NVBitFI analog) that runs complete
//     applications on a fast functional SIMT emulator and corrupts the
//     output of one dynamic instruction per run — with the naive
//     single-bit-flip model, or with a syndrome drawn from the database,
//     or (for CNNs) with the multi-thread t-MxM tile corruption.
//
// Basic usage:
//
//	char, err := gpufi.Characterize(gpufi.CharacterizeConfig{FaultsPerCampaign: 2000})
//	...
//	evals, err := gpufi.EvaluateHPC(char.DB, gpufi.HPCSuite(), gpufi.EvalConfig{Injections: 1000})
//	for _, e := range evals {
//		fmt.Printf("%-10s bit-flip PVF %.2f  syndrome PVF %.2f\n",
//			e.Name, e.BitFlip.PVF(), e.Syndrome.PVF())
//	}
//
// Everything is deterministic: campaigns are seeded and re-running any
// configuration reproduces its numbers exactly.
package gpufi

import (
	"context"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
	"gpufi/internal/core"
	"gpufi/internal/faults"
	"gpufi/internal/swfi"
	"gpufi/internal/syndrome"
)

// Re-exported configuration and result types of the two-level framework.
type (
	// CharacterizeConfig controls the RTL characterisation phase.
	CharacterizeConfig = core.CharacterizeConfig
	// Characterization holds the syndrome DB and raw RTL campaign data.
	Characterization = core.Characterization
	// EvalConfig controls the software injection phase.
	EvalConfig = core.EvalConfig
	// AppEvaluation is one Table III row.
	AppEvaluation = core.AppEvaluation
	// CNNEvaluation is one CNN evaluation with all three fault models.
	CNNEvaluation = core.CNNEvaluation
	// AVFRow is one Fig. 4 cell.
	AVFRow = core.AVFRow
	// ModuleCriticality is a hardening-priority entry.
	ModuleCriticality = core.ModuleCriticality
	// CostModel quantifies RTL-vs-software injection cost (§VI).
	CostModel = core.CostModel

	// DB is the fault-syndrome database (the paper's public artefact).
	DB = syndrome.DB

	// Workload is an injectable application.
	Workload = apps.Workload
	// Network is a runnable CNN.
	Network = cnn.Network
	// Campaign is a software injection campaign on an HPC workload.
	Campaign = swfi.Campaign
	// CampaignResult is its outcome.
	CampaignResult = swfi.Result
	// CNNCampaign is a CNN injection campaign.
	CNNCampaign = swfi.CNNCampaign
	// CNNResult is its outcome.
	CNNResult = swfi.CNNResult
	// FaultModel selects the software corruption model.
	FaultModel = swfi.FaultModel
	// Outcome is the Masked/SDC/DUE classification.
	Outcome = faults.Outcome
	// Counts is a per-opcode dynamic-instruction profile (Fig. 3).
	Counts = swfi.Counts
)

// Software fault models.
const (
	ModelBitFlip       = swfi.ModelBitFlip
	ModelDoubleBitFlip = swfi.ModelDoubleBitFlip
	ModelSyndrome      = swfi.ModelSyndrome
	ModelSyndromeEmp   = swfi.ModelSyndromeEmp
)

// Characterize runs the RTL phase: micro-benchmark campaigns over the 12
// characterised SASS instructions and t-MxM campaigns, building the
// syndrome database (§V).
func Characterize(cfg CharacterizeConfig) (*Characterization, error) {
	return core.Characterize(cfg)
}

// CharacterizeCtx is Characterize with cancellation and fault-level
// progress reporting via cfg.Progress. Campaign unit seeds are derived at
// planning time, so a cancelled characterisation re-run with the same
// configuration reproduces its campaigns bit-identically.
func CharacterizeCtx(ctx context.Context, cfg CharacterizeConfig) (*Characterization, error) {
	return core.CharacterizeCtx(ctx, cfg)
}

// EvaluateHPC measures the PVF of the workloads under both the bit-flip
// and the syndrome fault model (Fig. 10 / Table III).
func EvaluateHPC(db *DB, workloads []*Workload, cfg EvalConfig) ([]*AppEvaluation, error) {
	return core.EvaluateHPC(db, workloads, cfg)
}

// EvaluateHPCCtx is EvaluateHPC with cancellation and injection-level
// progress reporting via cfg.Progress.
func EvaluateHPCCtx(ctx context.Context, db *DB, workloads []*Workload, cfg EvalConfig) ([]*AppEvaluation, error) {
	return core.EvaluateHPCCtx(ctx, db, workloads, cfg)
}

// EvaluateCNN measures a network's PVF under bit-flip, syndrome and t-MxM
// tile models, with critical-SDC classification (§VI).
func EvaluateCNN(db *DB, name string, net *Network, input []float32,
	critical func(a, b []float32) bool, cfg EvalConfig) (*CNNEvaluation, error) {
	return core.EvaluateCNN(db, name, net, input, critical, cfg)
}

// EvaluateCNNCtx is EvaluateCNN with cancellation and injection-level
// progress reporting via cfg.Progress.
func EvaluateCNNCtx(ctx context.Context, db *DB, name string, net *Network, input []float32,
	critical func(a, b []float32) bool, cfg EvalConfig) (*CNNEvaluation, error) {
	return core.EvaluateCNNCtx(ctx, db, name, net, input, critical, cfg)
}

// RunCampaign executes one software injection campaign.
func RunCampaign(c Campaign) (*CampaignResult, error) { return swfi.Run(c) }

// RunCampaignCtx is RunCampaign with cancellation at injection boundaries
// and progress reporting via c.Progress.
func RunCampaignCtx(ctx context.Context, c Campaign) (*CampaignResult, error) {
	return swfi.RunCtx(ctx, c)
}

// RunCNNCampaign executes one CNN injection campaign.
func RunCNNCampaign(c CNNCampaign) (*CNNResult, error) { return swfi.RunCNN(c) }

// RunCNNCampaignCtx is RunCNNCampaign with cancellation at injection
// boundaries and progress reporting via c.Progress.
func RunCNNCampaignCtx(ctx context.Context, c CNNCampaign) (*CNNResult, error) {
	return swfi.RunCNNCtx(ctx, c)
}

// Profile returns a workload's dynamic instruction histogram (Fig. 3).
func Profile(w *Workload) (Counts, error) { return swfi.Profile(w) }

// MeasureCost benchmarks RTL vs software injection cost on a workload.
func MeasureCost(w *Workload) (*CostModel, error) { return core.MeasureCost(w) }

// HPCSuite returns the paper's six HPC applications (Table III) at scaled
// sizes suitable for injection campaigns.
func HPCSuite() []*Workload { return apps.Suite() }

// NewMxM, NewLUD, NewQuicksort, NewLava, NewGaussian and NewHotspot build
// individual applications at custom sizes.
var (
	NewMxM       = apps.NewMxM
	NewLUD       = apps.NewLUD
	NewQuicksort = apps.NewQuicksort
	NewLava      = apps.NewLava
	NewGaussian  = apps.NewGaussian
	NewHotspot   = apps.NewHotspot
)

// NewLeNetLite and NewYoloLite build the evaluation CNNs; LeNetInput and
// YoloInput synthesise deterministic inputs; LeNetCritical and
// YoloCritical are the §VI criticality criteria.
var (
	NewLeNetLite  = cnn.NewLeNetLite
	NewYoloLite   = cnn.NewYoloLite
	LeNetInput    = cnn.LeNetInput
	YoloInput     = cnn.YoloInput
	LeNetCritical = swfi.LeNetCritical
	YoloCritical  = swfi.YoloCritical
)

// SaveDB writes a syndrome database to a JSON file, the framework's
// publishable artefact (the paper's repository [23]). The write is
// atomic, so a crashed or cancelled campaign can never leave a torn
// database behind.
func SaveDB(db *DB, path string) error { return syndrome.Save(db, path) }

// LoadDB reads a syndrome database from a JSON file.
func LoadDB(path string) (*DB, error) { return syndrome.Load(path) }
