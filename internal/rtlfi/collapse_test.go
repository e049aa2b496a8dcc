package rtlfi

import (
	"reflect"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/rtl"
)

// TestMicroCollapseBitIdentical is fault-equivalence collapsing's anchor
// regression, modeled on TestMicroPruneBitIdentical: the default engine
// (collapse on) must be byte-identical to NoCollapse runs across module
// families, and the cycle accounting must agree exactly — a collapsed
// member's whole would-be replay (identical to its representative's, by
// trajectory identity) moves wholesale into SkippedCycles.
// NoBitParallel on both sides isolates the collapse path.
func TestMicroCollapseBitIdentical(t *testing.T) {
	specs := []Spec{
		{Op: isa.OpFFMA, Range: faults.RangeMedium, Module: faults.ModFP32, NumFaults: 2000, Seed: 451, NoBitParallel: true},
		{Op: isa.OpIMAD, Range: faults.RangeLarge, Module: faults.ModINT, NumFaults: 2000, Seed: 452, NoBitParallel: true},
		{Op: isa.OpFSIN, Range: faults.RangeMedium, Module: faults.ModSFU, NumFaults: 2000, Seed: 453, NoBitParallel: true},
		{Op: isa.OpFSIN, Range: faults.RangeMedium, Module: faults.ModPipe, NumFaults: 2000, Seed: 454, NoBitParallel: true},
		// A dense campaign: at this fault count classes collide often, so
		// thousands of injections flow through the memo path rather than a
		// handful.
		{Op: isa.OpFSIN, Range: faults.RangeMedium, Module: faults.ModPipe, NumFaults: 100_000, Seed: 455, NoBitParallel: true},
	}
	var collapsedTotal uint64
	for _, spec := range specs {
		collapsed, err := RunMicro(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.NoCollapse = true
		plain, err := RunMicro(spec)
		if err != nil {
			t.Fatal(err)
		}
		assertMicroEqual(t, collapsed, plain)
		if plain.CollapsedFaults != 0 {
			t.Errorf("%s/%s: NoCollapse run reported %d collapsed faults", spec.Op, spec.Module, plain.CollapsedFaults)
		}
		if ct, pt := collapsed.SimCycles+collapsed.SkippedCycles, plain.SimCycles+plain.SkippedCycles; ct != pt {
			t.Errorf("%s/%s: cycle accounting: collapsed %d simulated + %d skipped != %d plain",
				spec.Op, spec.Module, collapsed.SimCycles, collapsed.SkippedCycles, pt)
		}
		t.Logf("%s/%s: %d/%d faults collapsed", spec.Op, spec.Module, collapsed.CollapsedFaults, spec.NumFaults)
		collapsedTotal += collapsed.CollapsedFaults
	}
	if collapsedTotal == 0 {
		t.Error("no faults collapsed in any module family; the regression does not exercise the memo path")
	}
}

// TestTMXMCollapseBitIdentical mirrors the regression for the t-MxM path.
func TestTMXMCollapseBitIdentical(t *testing.T) {
	for _, mod := range []faults.Module{faults.ModSched, faults.ModPipe} {
		spec := TMXMSpec{Module: mod, Kind: 2 /* Random */, NumFaults: 200, Seed: 78, NoBitParallel: true}
		collapsed, err := RunTMXM(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.NoCollapse = true
		plain, err := RunTMXM(spec)
		if err != nil {
			t.Fatal(err)
		}
		if collapsed.Tally != plain.Tally {
			t.Fatalf("%s tally: collapsed %+v, NoCollapse %+v", mod, collapsed.Tally, plain.Tally)
		}
		if collapsed.Patterns != plain.Patterns {
			t.Fatalf("%s patterns: %v vs %v", mod, collapsed.Patterns, plain.Patterns)
		}
		if !reflect.DeepEqual(collapsed.PatternErrs, plain.PatternErrs) {
			t.Fatalf("%s pattern error pools differ", mod)
		}
		if plain.CollapsedFaults != 0 {
			t.Errorf("%s: NoCollapse run reported %d collapsed faults", mod, plain.CollapsedFaults)
		}
		if ct, pt := collapsed.SimCycles+collapsed.SkippedCycles, plain.SimCycles+plain.SkippedCycles; ct != pt {
			t.Errorf("%s: cycle accounting: %d != %d", mod, ct, pt)
		}
	}
}

// TestCollapseCrossValidation is the standing trajectory-identity guard
// for equivalence collapsing, the analogue of TestDeadPruneCrossValidation:
// build a dense campaign's collapse index white-box, then fully simulate
// (from cycle 0, no checkpoints, no memo) at least 200 collapsed members
// and their representatives. Each pair must agree on DUE status, final
// memory image (hence classification), simulated cycle count, and the
// classified outcome record — syndrome pools included.
func TestCollapseCrossValidation(t *testing.T) {
	const (
		wantMembers = 200
		numFaults   = 200_000
	)
	spec := Spec{Op: isa.OpFSIN, Range: faults.RangeMedium, Module: faults.ModPipe, NumFaults: numFaults, Seed: 460}
	p, err := spec.plan()
	if err != nil {
		t.Fatal(err)
	}
	prog, dp, jobs, ci := p.prog, p.draws, p.jobs, p.collapse

	// fullSim replays one fault from cycle 0 on a fresh-state machine —
	// the ground truth every engine shortcut must reproduce.
	machine := rtl.New()
	type outcome struct {
		g      []uint32
		err    error
		cycles uint64
	}
	fullSim := func(j faultJob) outcome {
		d := dp[j.draw]
		g := append([]uint32(nil), d.global...)
		machine.Inject(j.fault)
		err := machine.Run(prog, 1, MicroThreads, g, 0, d.goldenCycles*watchdogFactor+1000)
		return outcome{g: g, err: err, cycles: machine.Cycles()}
	}
	classified := func(j faultJob, o outcome) *Result {
		res := &Result{Spec: spec}
		res.add(classify(spec.Op, j.fault, machine, o.g, dp[j.draw].golden, o.err))
		return res
	}

	repOutcomes := make(map[int]outcome)
	checked := 0
	for i := range jobs {
		if checked >= wantMembers {
			break
		}
		e := ci[i]
		if e == nil || e.Rep == i {
			continue
		}
		rep, ok := repOutcomes[e.Rep]
		if !ok {
			rep = fullSim(jobs[e.Rep])
			repOutcomes[e.Rep] = rep
		}
		mem := fullSim(jobs[i])
		rj, mj := jobs[e.Rep], jobs[i]
		if (rep.err == nil) != (mem.err == nil) {
			t.Fatalf("member %+v vs rep %+v: DUE mismatch: %v vs %v", mj.fault, rj.fault, mem.err, rep.err)
		}
		if mem.err != nil && mem.err.Error() != rep.err.Error() {
			t.Fatalf("member %+v vs rep %+v: DUE causes differ: %v vs %v", mj.fault, rj.fault, mem.err, rep.err)
		}
		if mem.cycles != rep.cycles {
			t.Fatalf("member %+v vs rep %+v: trajectory lengths differ: %d vs %d cycles",
				mj.fault, rj.fault, mem.cycles, rep.cycles)
		}
		if mem.err == nil && !reflect.DeepEqual(mem.g, rep.g) {
			t.Fatalf("member %+v vs rep %+v: final memory images differ", mj.fault, rj.fault)
		}
		mr, rr := classified(mj, mem), classified(rj, rep)
		if mr.Tally != rr.Tally {
			t.Fatalf("member %+v vs rep %+v: classification differs: %+v vs %+v", mj.fault, rj.fault, mr.Tally, rr.Tally)
		}
		if !reflect.DeepEqual(mr.Syndromes, rr.Syndromes) || !reflect.DeepEqual(mr.BitsWrong, rr.BitsWrong) {
			t.Fatalf("member %+v vs rep %+v: syndromes differ", mj.fault, rj.fault)
		}
		checked++
	}
	if checked < wantMembers {
		t.Fatalf("cross-validated only %d collapsed members (want >= %d); densify the spec", checked, wantMembers)
	}
	t.Logf("cross-validated %d collapsed members against %d representatives", checked, len(repOutcomes))
}
