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

	// NoFastForward disables the golden-prefix checkpoint optimisation;
	// see Spec.NoFastForward.
	NoFastForward bool

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

// PatternShare returns the share of multi-element SDCs classified as p,
// over all multi-element SDCs (Table II normalises over multiple
// patterns; single corrupted elements are not listed).
func (r *TMXMResult) PatternShare(p faults.Pattern) float64 {
	multi := 0
	for pat, n := range r.Patterns {
		if faults.Pattern(pat) != faults.PatSingle {
			multi += n
		}
	}
	if multi == 0 {
		return 0
	}
	return float64(r.Patterns[p]) / float64(multi)
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
			spec.NoFastForward, spec.NoPrune, spec.NoBitParallel),
		family{prog: prog, block: mxm.BlockThreads, sharedWords: mxm.SharedWords, goldenBudget: 5_000_000,
			input: func(rng *stats.RNG) []uint32 {
				a, b := mxm.TileInputs(spec.Kind, rng.Uint64())
				return mxm.Pack(a, b, mxm.Tile)
			}})
}

// RunTMXM executes a t-MxM RTL fault-injection campaign.
func RunTMXM(spec TMXMSpec) (*TMXMResult, error) {
	return RunTMXMCtx(context.Background(), spec)
}

// RunTMXMCtx is RunTMXM with cancellation at fault boundaries; the fault
// list is derived from Spec.Seed so re-runs are bit-identical.
func RunTMXMCtx(ctx context.Context, spec TMXMSpec) (*TMXMResult, error) {
	p, err := spec.plan()
	if err != nil {
		return nil, err
	}
	goldenC := make([][]float32, len(p.draws))
	for i, d := range p.draws {
		goldenC[i] = mxm.ExtractC(d.golden, mxm.Tile)
	}

	// tmxmOut is one fault's classified effect; the zero value is a Masked
	// fault that corrupted nothing.
	type tmxmOut struct {
		outcome   faults.Outcome
		corrupted int
		pattern   faults.Pattern
		errs      []float64 // finite relative errors of the corrupted elements
	}
	outs, counters, err := run(ctx, p, func(_ *rtl.Machine, j faultJob, g []uint32, err error) tmxmOut {
		if err != nil {
			return tmxmOut{outcome: faults.DUE}
		}
		corr := mxm.Compare(goldenC[j.draw], mxm.ExtractC(g, mxm.Tile), mxm.Tile)
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
	})
	if err != nil {
		return nil, err
	}
	// Folding in job order keeps each pattern's error pool independent of
	// the worker count.
	out := &TMXMResult{Spec: spec, PatternErrs: make(map[faults.Pattern][]float64),
		GoldenCycles: p.draws[0].goldenCycles, Counters: counters}
	for _, o := range outs {
		out.Tally.Add(o.outcome, o.corrupted)
		if o.outcome == faults.SDC {
			out.Patterns[o.pattern]++
			out.PatternErrs[o.pattern] = append(out.PatternErrs[o.pattern], o.errs...)
		}
	}
	return out, nil
}
