package swfi

import (
	"context"
	"fmt"
	"math"
	"time"

	"gpufi/internal/cnn"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/replay"
	"gpufi/internal/stats"
	"gpufi/internal/syndrome"
)

// CNNModel selects the CNN fault model: the instruction-level models, or
// the t-MxM tile corruption of §IV-B/§VI.
type CNNModel uint8

// CNN fault models.
const (
	CNNBitFlip  CNNModel = iota // single bit-flip in one instruction output
	CNNSyndrome                 // RTL relative-error syndrome, single thread
	CNNTile                     // t-MxM tile corruption (multi-thread RTL model)
)

// String implements fmt.Stringer.
func (m CNNModel) String() string {
	switch m {
	case CNNBitFlip:
		return "single bit-flip"
	case CNNSyndrome:
		return "relative error"
	case CNNTile:
		return "t-MxM tile"
	default:
		return fmt.Sprintf("CNNModel(%d)", uint8(m))
	}
}

// CNNCampaign describes a CNN injection campaign.
type CNNCampaign struct {
	Net        *cnn.Network
	Input      []float32
	Model      CNNModel
	DB         *syndrome.DB // required by CNNSyndrome and CNNTile
	Injections int
	Seed       uint64
	Workers    int

	// Critical classifies an SDC as critical (misclassification or
	// misdetection) by comparing golden and faulty outputs.
	Critical func(golden, faulty []float32) bool

	// NoFastForward disables the golden-prefix checkpoint optimisation and
	// re-executes every injection run from the first layer with hooks
	// armed throughout. Results are bit-identical either way; see
	// Campaign.NoFastForward.
	NoFastForward bool

	// Deprecated: ignored; kept until bench/ stops setting it (ROADMAP 1(a)/2(c)).
	NoPrune bool

	// Deprecated: ignored; kept until bench/ stops setting it (ROADMAP 1(a)).
	NoCollapse bool

	// NoFastPath forces the emulator's Tier-0 reference interpreter for
	// every run this campaign issues; see Campaign.NoFastPath. Results
	// are bit-identical either way.
	NoFastPath bool

	// Prepared, when non-nil, supplies a ready-made golden run, profile
	// and checkpoint trace for Net/Input (from PrepareCNN), letting the
	// three fault models share one preparation. Ignored when
	// NoFastForward is set.
	Prepared *CNNPrepared

	// Progress, when non-nil, is called after every completed injection
	// run; see Campaign.Progress for the concurrency contract.
	Progress func(done, total int)
}

// CNNResult aggregates a CNN campaign, separating tolerable from critical
// SDCs (§VI).
type CNNResult struct {
	Model       CNNModel
	Tally       faults.Tally
	CriticalSDC int
	Profile     Counts

	// Counters is the engine's accounting of the campaign; see Result.
	Counters

	// Elapsed is the campaign's wall-clock time, including preparation;
	// see Result.Elapsed.
	Elapsed time.Duration
}

// PVF is the SDC program vulnerability factor.
func (r *CNNResult) PVF() float64 { return r.Tally.AVFSDC() }

// CriticalShare is the fraction of SDCs that change the network's
// decision — the paper's 20% (LeNET) / 15% (YOLO) t-MxM finding.
func (r *CNNResult) CriticalShare() float64 {
	if s := r.Tally.SDCs(); s > 0 {
		return float64(r.CriticalSDC) / float64(s)
	}
	return 0
}

// RunCNN executes a CNN injection campaign.
func RunCNN(c CNNCampaign) (*CNNResult, error) {
	return RunCNNCtx(context.Background(), c)
}

// RunCNNCtx is RunCNN with cancellation at injection boundaries.
// Per-injection RNG streams are derived from the seed and injection index,
// so re-runs reproduce the campaign bit-identically.
func RunCNNCtx(ctx context.Context, c CNNCampaign) (*CNNResult, error) {
	start := time.Now()
	if (c.Model == CNNSyndrome || c.Model == CNNTile) && c.DB == nil {
		return nil, ErrNoDB
	}
	s := &subject[[]float32]{
		name: c.Net.Name, model: ModelBitFlip, db: c.DB,
		injections: c.Injections, seed: c.Seed, salt: 0xD1B54A32D192ED03, workers: c.Workers,
		progress:      c.Progress,
		noFastForward: c.NoFastForward, noFastPath: c.NoFastPath,
		shared:   c.Prepared,
		prepare:  func(record bool) (*CNNPrepared, error) { return prepareCNN(c.Net, c.Input, c.NoFastPath, record) },
		exec:     func(rt replay.Runner) ([]float32, error) { return c.Net.RunWith(rt, c.Input, nil) },
		equal:    floatsEqual,
		critical: c.Critical,
	}
	switch c.Model {
	case CNNSyndrome:
		s.model = ModelSyndrome
	case CNNTile:
		s.tile = func(r *stats.RNG) (int, func(replay.Runner) ([]float32, error), bool) {
			inj, ok := c.Net.RandomTileInjection(c.DB, r)
			if !ok {
				return 0, nil, false
			}
			return inj.Layer, func(rt replay.Runner) ([]float32, error) { return c.Net.RunWith(rt, c.Input, inj) }, true
		}
	}
	out, err := s.run(ctx)
	if err != nil {
		return nil, err
	}
	return &CNNResult{
		Model: c.Model, Tally: out.tally, CriticalSDC: out.critical, Profile: out.prep.profile,
		Counters: out.Counters, Elapsed: time.Since(start),
	}, nil
}

func floatsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// LeNetCritical is the misclassification criterion (argmax change).
func LeNetCritical(golden, faulty []float32) bool {
	return cnn.Classify(golden) != cnn.Classify(faulty)
}

// YoloCritical is the misdetection criterion (IoU-matched box sets).
func YoloCritical(golden, faulty []float32) bool {
	return cnn.Misdetection(cnn.DecodeDetections(golden), cnn.DecodeDetections(faulty))
}

// FigureProfile renders an application's Fig. 3 row: shares per category.
func FigureProfile(name string, counts Counts) string {
	sh := counts.CategoryShares()
	return fmt.Sprintf("%-10s FP32=%.2f INT32=%.2f SFU=%.2f Control=%.2f Others=%.2f",
		name,
		sh[isa.CatFP32], sh[isa.CatINT32], sh[isa.CatSFU], sh[isa.CatControl], sh[isa.CatOther])
}
