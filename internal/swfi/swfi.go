// Package swfi is the software-level fault injector — the analog of the
// paper's modified NVBitFI (§IV-B). It instruments applications running on
// the functional emulator at the instruction level: it profiles the
// executed SASS opcodes (Fig. 3), picks a random dynamic instruction, and
// corrupts its output either with the naive single/double bit-flip model
// or with an RTL syndrome drawn from the fault-model database, then
// classifies the run as Masked, SDC or DUE and accumulates the Program
// Vulnerability Factor (Fig. 10 / Table III).
package swfi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"gpufi/internal/apps"
	"gpufi/internal/emu"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/stats"
	"gpufi/internal/syndrome"
)

// FaultModel selects the corruption applied to the selected instruction's
// output value.
type FaultModel uint8

// Fault models.
const (
	ModelBitFlip       FaultModel = iota // single bit-flip (the naive baseline)
	ModelDoubleBitFlip                   // double bit-flip
	ModelSyndrome                        // RTL relative error via Eq. 1 (power law)
	ModelSyndromeEmp                     // RTL relative error from the raw reservoir
)

// String implements fmt.Stringer.
func (m FaultModel) String() string {
	switch m {
	case ModelBitFlip:
		return "single bit-flip"
	case ModelDoubleBitFlip:
		return "double bit-flip"
	case ModelSyndrome:
		return "relative error (power law)"
	case ModelSyndromeEmp:
		return "relative error (empirical)"
	default:
		return fmt.Sprintf("FaultModel(%d)", uint8(m))
	}
}

// NeedsDB reports whether the model draws from the syndrome database.
func (m FaultModel) NeedsDB() bool { return m == ModelSyndrome || m == ModelSyndromeEmp }

// Injectable reports whether the software injector corrupts outputs of
// this opcode: the RTL-characterised instructions that produce a data
// value (§VI: "we inject only in the 12 opcodes we characterize with RTL
// fault injection"; BRA produces no register output and is therefore not
// a software injection target).
func Injectable(op isa.Opcode) bool {
	return op.Characterized() && op != isa.OpBRA
}

// Profile executes the workload once and returns its dynamic thread-level
// instruction histogram — the data behind Fig. 3.
func Profile(w *apps.Workload) (Counts, error) {
	var counts Counts
	hooks := emu.Hooks{Post: func(ev *emu.Event) {
		counts[ev.Instr.Op] += uint64(ev.ActiveCount())
	}}
	if _, err := w.Execute(hooks); err != nil {
		return counts, err
	}
	return counts, nil
}

// Counts is a per-opcode dynamic instruction histogram.
type Counts [isa.NumOpcodes]uint64

// Total returns all counted thread-instructions.
func (c Counts) Total() uint64 {
	var t uint64
	for _, v := range c {
		t += v
	}
	return t
}

// InjectableTotal returns the thread-instructions eligible for injection.
func (c Counts) InjectableTotal() uint64 {
	var t uint64
	for op, v := range c {
		if Injectable(isa.Opcode(op)) {
			t += v
		}
	}
	return t
}

// CategoryShares buckets the histogram into the paper's Fig. 3 categories
// (FP32, INT32, SFU, Control, Others) as fractions of the total.
func (c Counts) CategoryShares() map[isa.Category]float64 {
	totals := map[isa.Category]uint64{}
	var all uint64
	for op, v := range c {
		totals[isa.Opcode(op).Category()] += v
		all += v
	}
	out := map[isa.Category]float64{}
	if all == 0 {
		return out
	}
	for cat, v := range totals {
		out[cat] = float64(v) / float64(all)
	}
	return out
}

// injector corrupts the output of the target-th injectable dynamic
// thread-instruction.
type injector struct {
	target  uint64
	counter uint64
	fired   bool
	model   FaultModel
	db      *syndrome.DB
	focus   *faults.Module // nil = module cocktail
	rng     *stats.RNG

	// record of what was injected, for reports
	op      isa.Opcode
	relErr  float64
	oldBits uint32
	newBits uint32
}

func (in *injector) post(ev *emu.Event) {
	if in.fired {
		// Already fired — and a fresh exec (the launch's next block, or a
		// NoFastForward re-run) re-arms hooks, so disarm again here.
		ev.Disarm()
		return
	}
	if !Injectable(ev.Instr.Op) {
		return
	}
	n := uint64(ev.ActiveCount())
	if in.counter+n <= in.target {
		in.counter += n
		return
	}
	lane := ev.NthActiveLane(int(in.target - in.counter))
	in.counter += n
	in.fired = true
	in.op = ev.Instr.Op
	old, ok := ev.DstValue(lane)
	if !ok {
		ev.Disarm()
		return // defensive: Injectable ops all produce a value
	}
	in.oldBits = old

	var mag float64
	if in.model.NeedsDB() {
		mag = operandMagnitude(ev, lane)
	}
	in.newBits, in.relErr = in.corrupt(old, mag)
	ev.CorruptDst(lane, in.newBits)
	// The fault has fired; every later call would hit the in.fired guard
	// above and return. Telling the emulator lets the post-fault tail run
	// hook-free on the fast path.
	ev.Disarm()
}

// corrupt makes the fired injection's corruption draws on the site's golden
// output bits: the corrupted value and the relative error applied (0 for
// the bit-flip models).
func (in *injector) corrupt(old uint32, mag float64) (newBits uint32, relErr float64) {
	op, r := in.op, in.rng
	switch in.model {
	case ModelBitFlip:
		return old ^ 1<<uint(r.Intn(32)), 0
	case ModelDoubleBitFlip:
		b1 := r.Intn(32)
		b2 := (b1 + 1 + r.Intn(31)) % 32
		return old ^ 1<<uint(b1) ^ 1<<uint(b2), 0
	default:
		rng := faults.ClassifyMagnitude(mag)
		mode := syndrome.SamplePowerLaw
		if in.model == ModelSyndromeEmp {
			mode = syndrome.SampleEmpirical
		}
		var rel float64
		var found bool
		if in.focus != nil {
			rel, found = in.db.SampleFrom(op, rng, *in.focus, mode, r)
		} else {
			rel, found = in.db.Sample(op, rng, mode, r)
		}
		if !found {
			rel = 1.0 // uncharacterised pool: the canonical 100% syndrome
		}
		if op.IsFloat() {
			return syndrome.ApplyRelErrF32(old, rel, r.Bool()), rel
		}
		return syndrome.ApplyRelErrI32(old, rel, r.Bool()), rel
	}
}

// operandMagnitude estimates the instruction's input scale for syndrome
// range selection (§V-A: inputs below the S bound take the S syndrome,
// above the L bound the L syndrome, M otherwise). Memory operations use
// the transferred value.
func operandMagnitude(ev *emu.Event, lane int) float64 {
	op := ev.Instr.Op
	if op.IsMemory() {
		v, _ := ev.DstValue(lane)
		if op.IsFloat() {
			return math.Abs(float64(math.Float32frombits(v)))
		}
		return math.Abs(float64(int32(v)))
	}
	mag := func(bits uint32) float64 {
		if op.IsFloat() {
			f := float64(math.Float32frombits(bits))
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return 0
			}
			return math.Abs(f)
		}
		return math.Abs(float64(int32(bits)))
	}
	a := mag(ev.SrcA(lane))
	if op.NumSrcs() >= 2 {
		if b := mag(ev.SrcB(lane)); b > a {
			a = b
		}
	}
	return a
}

// Campaign describes one software injection campaign on an HPC workload.
type Campaign struct {
	Workload   *apps.Workload
	Model      FaultModel
	DB         *syndrome.DB // required by syndrome models
	Injections int
	Seed       uint64
	Workers    int

	// ModuleFocus restricts syndrome sampling to one module's pools
	// instead of the cross-module cocktail — the paper's "focus the
	// software fault injection in just one module" mode (§VI). Nil uses
	// the cocktail.
	ModuleFocus *faults.Module

	// RecordInjections keeps one InjectionRecord per run in the result
	// for auditing what was injected where.
	RecordInjections bool

	// NoFastForward disables the golden-prefix checkpoint optimisation and
	// re-executes every injection run from dynamic instruction zero with
	// hooks armed throughout. Results are bit-identical either way; the
	// flag exists for regression tests and benchmarks of the fast-forward
	// path itself.
	NoFastForward bool

	// Deprecated: ignored; kept until bench/ stops setting it (ROADMAP 1(a)/2(c)).
	NoPrune bool

	// Deprecated: ignored; kept until bench/ stops setting it (ROADMAP 1(a)).
	NoCollapse bool

	// NoFastPath forces the emulator's Tier-0 reference interpreter for
	// every run this campaign issues instead of the pre-decoded Tier-1
	// fast path (emu.Launch.NoFastPath). Results are bit-identical either
	// way; the flag exists for regression comparison and for benchmarking
	// the interpreter tiers themselves.
	NoFastPath bool

	// Prepared, when non-nil, supplies a ready-made golden run, profile
	// and checkpoint trace for Workload (from PrepareWorkload), letting
	// several campaigns on the same workload share one preparation. It is
	// ignored when NoFastForward is set.
	Prepared *Prepared

	// Tolerance relaxes the SDC criterion: outputs are compared as
	// float32 values with this relative tolerance instead of bitwise
	// (the DESIGN.md §6 ablation; Rodinia-style golden compares use 0 =
	// exact).
	Tolerance float64

	// Progress, when non-nil, is called after every completed injection
	// run with the number of completed runs and the campaign total. It is
	// called concurrently from worker goroutines and done values may
	// arrive out of order; consumers should keep a running maximum.
	Progress func(done, total int)
}

// InjectionRecord audits one injection run.
type InjectionRecord struct {
	Op      isa.Opcode
	RelErr  float64 // 0 for bit-flip models
	OldBits uint32
	NewBits uint32
	Outcome faults.Outcome
}

// Result aggregates one campaign.
type Result struct {
	Campaign   Campaign
	Tally      faults.Tally
	Profile    Counts
	Injectable uint64
	Records    []InjectionRecord // when Campaign.RecordInjections

	// Counters is the engine's accounting of the campaign; Injections
	// equals Tally.Injections.
	Counters

	// NoReconvergeReason, when non-empty, explains why post-fault
	// reconvergence fast-forward was unavailable for this workload (an
	// impure host reading the arena between launches, e.g. quicksort's
	// host-side partitioning).
	NoReconvergeReason string

	// Elapsed is the campaign's wall-clock time, including preparation.
	// Passed to Counters.EmuMIPS/EffectiveMIPS it yields the
	// interpreter-throughput telemetry operators watch for
	// interpreter-tier regressions.
	Elapsed time.Duration
}

// PVF is the SDC program vulnerability factor: the probability that a
// fault which reached an ISA-visible state corrupts the program output.
func (r *Result) PVF() float64 { return r.Tally.AVFSDC() }

// PVFCI returns the 95% Wilson confidence interval of the PVF.
func (r *Result) PVFCI() (lo, hi float64) {
	return stats.WilsonCI(r.Tally.SDCs(), r.Tally.Injections, 1.96)
}

// ErrNoDB is returned when a syndrome model runs without a database.
var ErrNoDB = errors.New("swfi: syndrome model requires a fault-model database")

// Run executes the campaign: one golden run, one profiling run, then
// Injections instrumented runs with one corrupted instruction each.
func Run(c Campaign) (*Result, error) {
	return RunCtx(context.Background(), c)
}

// RunCtx is Run with cancellation: when ctx is cancelled the workers stop
// at the next injection boundary and the context error is returned.
// Per-injection RNG streams are derived from Campaign.Seed and the
// injection index, so re-running the same campaign — whole or after an
// interruption — reproduces every injection bit-identically.
func RunCtx(ctx context.Context, c Campaign) (*Result, error) {
	start := time.Now()
	if c.Model.NeedsDB() && c.DB == nil {
		return nil, ErrNoDB
	}
	w := c.Workload
	s := &subject[[]uint32]{
		name: w.Name, model: c.Model, db: c.DB, focus: c.ModuleFocus,
		injections: c.Injections, seed: c.Seed, salt: 0x9E3779B97F4A7C15, workers: c.Workers,
		records: c.RecordInjections, progress: c.Progress,
		noFastForward: c.NoFastForward, noFastPath: c.NoFastPath,
		shared:  c.Prepared,
		prepare: func(record bool) (*Prepared, error) { return prepareWorkload(w, c.NoFastPath, record) },
		exec:    w.ExecuteWith,
		equal:   func(golden, out []uint32) bool { return outputsMatch(golden, out, c.Tolerance) },
	}
	out, err := s.run(ctx)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Campaign: c, Tally: out.tally, Profile: out.prep.profile, Injectable: out.prep.profile.InjectableTotal(),
		Records: out.records, Counters: out.Counters,
	}
	if tr := out.prep.trace; tr != nil && !tr.HostPure {
		res.NoReconvergeReason = fmt.Sprintf(
			"%s host code reads the arena between launches: post-fault runs cannot provably rejoin the golden schedule, so reconvergence fast-forward is off", w.Name)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// outputsMatch compares outputs bitwise (tol == 0) or as float32 values
// within a relative tolerance.
func outputsMatch(golden, out []uint32, tol float64) bool {
	if tol == 0 {
		return slices.Equal(golden, out)
	}
	if len(golden) != len(out) {
		return false
	}
	for i := range golden {
		if golden[i] == out[i] {
			continue
		}
		g := float64(math.Float32frombits(golden[i]))
		f := float64(math.Float32frombits(out[i]))
		// Special values only match bitwise (handled above): a NaN or ±Inf
		// on either side is an SDC, never "within tolerance" — an Inf
		// golden would otherwise produce an Inf error bound that admits
		// any finite faulty value.
		if math.IsNaN(g) || math.IsNaN(f) || math.IsInf(g, 0) || math.IsInf(f, 0) {
			return false
		}
		if math.Abs(f-g) > tol*(1+math.Abs(g)) {
			return false
		}
	}
	return true
}
