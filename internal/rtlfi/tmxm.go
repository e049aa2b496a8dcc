package rtlfi

import (
	"context"
	"fmt"
	"math"

	"gpufi/internal/faults"
	"gpufi/internal/mxm"
	"gpufi/internal/rtl"
	"gpufi/internal/stats"
)

// TMXMSpec describes a tiled-MxM characterisation campaign (§V-D): inject
// into Module (scheduler or pipeline registers — the paper skips the
// functional units here) while one 8x8 tile multiplication runs with
// operands of the given kind.
type TMXMSpec struct {
	Module    faults.Module
	Kind      mxm.TileKind
	NumFaults int
	Seed      uint64
	Workers   int

	// NoPrune disables dead-site pruning; see Spec.NoPrune.
	NoPrune bool

	// NoBitParallel disables bit-parallel fault simulation; see
	// Spec.NoBitParallel.
	NoBitParallel bool

	// Progress, when non-nil, reports campaign progress; see Spec.Progress
	// for the throttling and concurrency contract.
	Progress func(done, total int)
}

// TMXMResult aggregates a t-MxM campaign: the outcome tally, the spatial
// pattern census (Fig. 8 / Table II) and per-pattern relative-error pools
// (Fig. 9).
type TMXMResult struct {
	Spec         TMXMSpec
	Tally        faults.Tally
	Patterns     [faults.NumPatterns]int
	PatternErrs  map[faults.Pattern][]float64
	GoldenCycles uint64

	// Counters is the engine's accounting of the campaign; see Result.
	Counters
}

// plan prepares and schedules the spec's campaign.
func (spec TMXMSpec) plan() (*plan, error) {
	if spec.Module != faults.ModSched && spec.Module != faults.ModPipe {
		return nil, fmt.Errorf("rtlfi: t-MxM characterises scheduler and pipeline only (got %s)", spec.Module)
	}
	prog, err := mxm.Build(mxm.Tile)
	if err != nil {
		return nil, err
	}
	return newPlan(
		newEngine(spec.Module, spec.NumFaults, spec.Seed, spec.Workers, spec.Progress,
			spec.NoPrune, spec.NoBitParallel),
		family{prog: prog, block: mxm.BlockThreads, sharedWords: mxm.SharedWords, goldenBudget: 5_000_000,
			input: func(rng *stats.RNG) []uint32 {
				a, b := mxm.TileInputs(spec.Kind, rng.Uint64())
				return mxm.Pack(a, b, mxm.Tile)
			}})
}

// RunTMXMCtx executes a t-MxM RTL fault-injection campaign, cancellable
// at fault boundaries; the fault list is derived from Spec.Seed so re-runs
// are bit-identical.
func RunTMXMCtx(ctx context.Context, spec TMXMSpec) (*TMXMResult, error) {
	p, err := spec.plan()
	if err != nil {
		return nil, err
	}
	goldenC := goldenTiles(p)
	outs, counters, err := run(ctx, p, func(_ *rtl.Machine, j faultJob, g []uint32, err error) tmxmOut {
		return classifyTMXM(goldenC[j.draw], g, err)
	})
	if err != nil {
		return nil, err
	}
	out := &TMXMResult{Spec: spec, PatternErrs: make(map[faults.Pattern][]float64),
		GoldenCycles: p.draws[0].goldenCycles, Counters: counters}
	for _, o := range outs {
		out.add(o)
	}
	return out, nil
}

// tmxmOut is one fault's classified effect; the zero value is a Masked
// fault that corrupted nothing.
type tmxmOut struct {
	outcome   faults.Outcome
	corrupted int
	pattern   faults.Pattern
	errs      []float64 // finite relative errors of the corrupted elements
}

// goldenTiles extracts every input draw's golden output tile.
func goldenTiles(p *plan) [][]float32 {
	goldenC := make([][]float32, len(p.draws))
	for i, d := range p.draws {
		goldenC[i] = mxm.ExtractC(d.golden, mxm.Tile)
	}
	return goldenC
}

// classifyTMXM compares a faulty run's output tile against the golden one.
func classifyTMXM(goldenC []float32, g []uint32, err error) tmxmOut {
	if err != nil {
		return tmxmOut{outcome: faults.DUE}
	}
	corr := mxm.Compare(goldenC, mxm.ExtractC(g, mxm.Tile), mxm.Tile)
	if corr.Count == 0 {
		return tmxmOut{}
	}
	finite := make([]float64, 0, len(corr.RelErrs))
	for _, e := range corr.RelErrs {
		if !math.IsInf(e, 0) && !math.IsNaN(e) {
			finite = append(finite, e)
		}
	}
	return tmxmOut{outcome: faults.SDC, corrupted: corr.Count, pattern: corr.Classify(), errs: finite}
}

// add folds one fault's classified effect into the campaign result.
// Folding in job order keeps each pattern's error pool independent of the
// worker count.
func (r *TMXMResult) add(o tmxmOut) {
	r.Tally.Add(o.outcome, o.corrupted)
	if o.outcome == faults.SDC {
		r.Patterns[o.pattern]++
		r.PatternErrs[o.pattern] = append(r.PatternErrs[o.pattern], o.errs...)
	}
}
