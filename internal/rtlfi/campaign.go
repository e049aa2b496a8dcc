package rtlfi

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"gpufi/internal/faults"
	"gpufi/internal/fp32"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
	"gpufi/internal/rtl"
	"gpufi/internal/stats"
)

// watchdogFactor scales the golden cycle count into the hang-detection
// budget of faulty runs.
const watchdogFactor = 10

// valuesPerRange is the number of randomly selected operand draws per
// input range (§V-A: "we perform a fault injection campaign on 4 different
// randomly selected values for each input range").
const valuesPerRange = 4

// Spec describes one micro-benchmark campaign: inject NumFaults single
// transients into Module while the Op micro-benchmark runs with operands
// from Range.
type Spec struct {
	Op        isa.Opcode
	Range     faults.InputRange
	Module    faults.Module
	NumFaults int
	Seed      uint64
	Workers   int // 0 = GOMAXPROCS

	// NoFastForward disables the golden-prefix checkpoint optimisation and
	// re-simulates every faulty run from cycle 0. Results are bit-identical
	// either way; the flag exists for regression tests and benchmarks of
	// the fast-forward path itself.
	NoFastForward bool

	// NoPrune disables dead-site pruning: the golden-run liveness
	// pre-classification that proves a fault Masked when its flip-flop
	// field is overwritten before any read after the injection cycle.
	// Results are bit-identical either way (pruning is conservative); the
	// flag mirrors NoFastForward for regression tests and benchmarks.
	NoPrune bool

	// NoBitParallel disables bit-parallel fault simulation: the march
	// engine that simulates up to 63 faulty variants of one input draw as
	// divergence deltas against a single golden replay, materialising a
	// variant onto its own machine only while it actually diverges.
	// Results are bit-identical either way; the flag mirrors
	// NoPrune/NoFastForward for regression tests and benchmarks.
	NoBitParallel bool

	// Progress, when non-nil, reports campaign progress as (completed
	// faults, campaign total). Calls are throttled to roughly one per
	// 1/1000th of the campaign; the final call always reports
	// (total, total). It is called concurrently from worker goroutines
	// and calls may arrive with non-monotonic done values; consumers
	// should keep a running maximum.
	Progress func(done, total int)
}

// Detailed is the paper's per-SDC detailed report record (§IV-A). An SDC
// found at a thread's output word carries that thread index in Thread
// (Word = -1); an SDC found only by the fallback scan of the rest of the
// memory image (e.g. a derailed store) has no corrupted thread output, so
// Thread is -1 and Word holds the corrupted memory-word index instead.
type Detailed struct {
	Fault     rtl.Fault
	FieldName string  // flip-flop group hit
	Thread    int     // first corrupted thread, or -1 for a memory-scan record
	Word      int     // corrupted memory-word index for memory-scan records, else -1
	Golden    uint32  // golden output word of that thread
	Faulty    uint32  // corrupted output word
	BitsWrong int     // corrupted bits in that word
	Threads   int     // number of corrupted threads
	RelErr    float64 // relative error of the first corrupted output
}

// Result aggregates one campaign.
type Result struct {
	Spec         Spec
	Tally        faults.Tally
	Syndromes    []float64 // relative error of every corrupted output word
	ThreadCounts []int     // corrupted threads per SDC
	BitsWrong    []int     // corrupted bits per corrupted word
	Details      []Detailed
	GoldenCycles uint64

	// Counters is the engine's accounting of the campaign; Injections
	// equals Tally.Injections.
	Counters
}

// RunMicro executes a micro-benchmark fault-injection campaign. The fault
// list (bit, cycle, input draw) is generated deterministically from
// Spec.Seed; faults are simulated in parallel on per-worker machines.
func RunMicro(spec Spec) (*Result, error) {
	return RunMicroCtx(context.Background(), spec)
}

// RunMicroCtx is RunMicro with cancellation: when ctx is cancelled the
// workers stop at the next fault boundary and the context error is
// returned. Because the fault list is derived up front from Spec.Seed, a
// re-run of the same spec reproduces the campaign bit-identically.
func RunMicroCtx(ctx context.Context, spec Spec) (*Result, error) {
	p, err := spec.plan()
	if err != nil {
		return nil, err
	}
	outs, counters, err := run(ctx, p, func(machine *rtl.Machine, j faultJob, g []uint32, err error) microOut {
		return classify(spec.Op, j.fault, machine, g, p.draws[j.draw].golden, err)
	})
	if err != nil {
		return nil, err
	}
	out := &Result{Spec: spec, GoldenCycles: p.draws[0].goldenCycles, Counters: counters}
	for _, o := range outs {
		out.add(o)
	}
	return out, nil
}

// plan prepares and schedules the spec's campaign.
func (spec Spec) plan() (*plan, error) {
	if !ModuleUsed(spec.Module, spec.Op) {
		return nil, fmt.Errorf("rtlfi: module %s idle during %s (not characterised)", spec.Module, spec.Op)
	}
	prog, err := BuildMicro(spec.Op)
	if err != nil {
		return nil, err
	}
	return newPlan(
		newEngine(spec.Module, spec.NumFaults, spec.Seed, spec.Workers, spec.Progress,
			spec.NoFastForward, spec.NoPrune, spec.NoBitParallel),
		family{prog: prog, block: MicroThreads, goldenBudget: 1_000_000,
			input: func(rng *stats.RNG) []uint32 { return MicroInputs(spec.Op, spec.Range, rng) }})
}

// microOut is one fault's classified effect; the zero value is a Masked
// fault that corrupted nothing.
type microOut struct {
	outcome faults.Outcome
	sdc     *microSDC
}

// microSDC is what one SDC adds to a campaign's per-fault outputs: a
// syndrome and a bits-wrong count per corrupted word, and the detailed
// record (whose Threads is the corrupted-word count).
type microSDC struct {
	syndromes []float64
	bitsWrong []int
	detail    Detailed
}

// add folds one fault's classified effect into the campaign result.
// Folding the faults in job order is what makes Syndromes, ThreadCounts,
// BitsWrong and Details independent of the worker count.
func (r *Result) add(o microOut) {
	if o.sdc == nil {
		r.Tally.Add(o.outcome, 0)
		return
	}
	r.Tally.Add(faults.SDC, o.sdc.detail.Threads)
	r.Syndromes = append(r.Syndromes, o.sdc.syndromes...)
	r.BitsWrong = append(r.BitsWrong, o.sdc.bitsWrong...)
	r.ThreadCounts = append(r.ThreadCounts, o.sdc.detail.Threads)
	r.Details = append(r.Details, o.sdc.detail)
}

// classify compares a faulty run against the golden output.
func classify(op isa.Opcode, fault rtl.Fault, machine *rtl.Machine, g, golden []uint32, err error) microOut {
	if err != nil {
		return microOut{outcome: faults.DUE}
	}
	isFloat := op.IsFloat()
	var syndromes []float64
	var bitsWrong []int
	first, firstWord := -1, -1
	var firstGold, firstFaulty uint32
	corrupt := func(gw, fw uint32) {
		syndromes = append(syndromes, relErrWord(gw, fw, isFloat))
		bitsWrong = append(bitsWrong, bits.OnesCount32(gw^fw))
	}
	for _, off := range outputOffsets(op) {
		for t := 0; t < MicroThreads; t++ {
			gw, fw := golden[off+t], g[off+t]
			if gw == fw {
				continue
			}
			if first < 0 {
				first, firstGold, firstFaulty = t, gw, fw
			}
			corrupt(gw, fw)
		}
	}
	// Also scan input regions: a fault that corrupts memory outside the
	// output area (e.g. a derailed store) is an SDC too. These records
	// identify a memory word, not a thread: Thread stays -1 so the §V-B
	// multiplicity/spatial analyses never mistake a word index for a
	// thread index. One ascending pass over the words not already compared
	// above — the outputs are clean here, so skipping them changes neither
	// the count nor the first-corrupted record.
	if len(syndromes) == 0 {
		scan := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if golden[i] != g[i] {
					if firstWord < 0 {
						firstWord, firstGold, firstFaulty = i, golden[i], g[i]
					}
					corrupt(golden[i], g[i])
				}
			}
		}
		next := 0
		for _, off := range outputOffsets(op) {
			scan(next, off)
			next = off + MicroThreads
		}
		scan(next, len(golden))
	}
	if len(syndromes) == 0 {
		return microOut{outcome: faults.Masked}
	}
	return microOut{outcome: faults.SDC, sdc: &microSDC{syndromes: syndromes, bitsWrong: bitsWrong, detail: Detailed{
		Fault:     fault,
		FieldName: machine.ModuleState(fault.Module).Lay.FieldAt(fault.Bit).Name,
		Thread:    first,
		Word:      firstWord,
		Golden:    firstGold,
		Faulty:    firstFaulty,
		BitsWrong: bits.OnesCount32(firstGold ^ firstFaulty),
		Threads:   len(syndromes),
		RelErr:    relErrWord(firstGold, firstFaulty, isFloat),
	}}}
}

// relErrWord computes the syndrome relative error of one corrupted word.
func relErrWord(golden, faulty uint32, isFloat bool) float64 {
	if isFloat {
		return fp32.RelErrBits(golden, faulty)
	}
	g, f := float64(int32(golden)), float64(int32(faulty))
	return fp32.RelErr(g, f)
}

// CharacterizedPrograms sanity-builds every micro-benchmark; used by tests
// and by the campaign drivers.
func CharacterizedPrograms() (map[isa.Opcode]*kasm.Program, error) {
	out := make(map[isa.Opcode]*kasm.Program)
	for _, op := range isa.CharacterizedOpcodes() {
		p, err := BuildMicro(op)
		if err != nil {
			return nil, err
		}
		out[op] = p
	}
	return out, nil
}

// AvgThreadsForModule runs the §V-B multiplicity analysis helper: the mean
// number of corrupted threads per SDC over a set of results.
func AvgThreadsForModule(results []*Result) float64 {
	var sum, n int
	for _, r := range results {
		for _, t := range r.ThreadCounts {
			sum += t
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// MedianSyndrome returns the median relative error of a campaign, the
// §V-C input-dependence statistic.
func MedianSyndrome(r *Result) float64 {
	if len(r.Syndromes) == 0 {
		return 0
	}
	finite := make([]float64, 0, len(r.Syndromes))
	for _, s := range r.Syndromes {
		if !math.IsInf(s, 0) && !math.IsNaN(s) {
			finite = append(finite, s)
		}
	}
	if len(finite) == 0 {
		return math.Inf(1)
	}
	return stats.Summarize(finite).Median
}
