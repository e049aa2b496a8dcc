package rtlfi

import (
	"reflect"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/rtl"
)

// TestMicroBitParallelBitIdentical is the march engine's anchor
// regression: the default engine (bit-parallel marching on) must be
// byte-identical to NoBitParallel runs across every module family, plus
// a dense campaign where lanes park, thrash and retire heavily. The
// cycle accounting must agree exactly — a marched fault's simulated +
// skipped split covers the same cycle span its scalar replay would.
func TestMicroBitParallelBitIdentical(t *testing.T) {
	// Fault counts are dense enough that every family fills at least one
	// full lane chunk per draw: the march engine only takes near-full
	// chunks (sparser groups fall through to the bit-identical scalar
	// path), so a sparse spec would not exercise the march at all.
	specs := []Spec{
		{Op: isa.OpFFMA, Range: faults.RangeMedium, Module: faults.ModFP32, NumFaults: 16_000, Seed: 471},
		{Op: isa.OpIMAD, Range: faults.RangeLarge, Module: faults.ModINT, NumFaults: 16_000, Seed: 472},
		{Op: isa.OpFSIN, Range: faults.RangeMedium, Module: faults.ModSFU, NumFaults: 16_000, Seed: 473},
		{Op: isa.OpFSIN, Range: faults.RangeMedium, Module: faults.ModSFUCtl, NumFaults: 16_000, Seed: 474},
		{Op: isa.OpFADD, Range: faults.RangeMedium, Module: faults.ModSched, NumFaults: 16_000, Seed: 475},
		{Op: isa.OpFSIN, Range: faults.RangeMedium, Module: faults.ModPipe, NumFaults: 16_000, Seed: 476},
		// A denser campaign still: many chunks per draw means heavy
		// parking, retirement and divergence-plane churn.
		{Op: isa.OpFSIN, Range: faults.RangeMedium, Module: faults.ModPipe, NumFaults: 100_000, Seed: 477},
	}
	var vectorTotal uint64
	for _, spec := range specs {
		vec, err := RunMicro(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.NoBitParallel = true
		plain, err := RunMicro(spec)
		if err != nil {
			t.Fatal(err)
		}
		assertMicroEqual(t, vec, plain)
		if plain.VectorFaults != 0 || plain.Marches != 0 {
			t.Errorf("%s/%s: NoBitParallel run reported %d vector faults in %d marches",
				spec.Op, spec.Module, plain.VectorFaults, plain.Marches)
		}
		if vt, pt := vec.SimCycles+vec.SkippedCycles, plain.SimCycles+plain.SkippedCycles; vt != pt {
			t.Errorf("%s/%s: cycle accounting: marched %d simulated + %d skipped != %d scalar",
				spec.Op, spec.Module, vec.SimCycles, vec.SkippedCycles, pt)
		}
		if vec.VectorFaults == 0 {
			t.Errorf("%s/%s: no faults marched; the spec no longer exercises the march engine", spec.Op, spec.Module)
		} else {
			if occ := vec.LaneOccupancy(); occ <= 0 || occ > 1 {
				t.Errorf("%s/%s: lane occupancy %.3f outside (0, 1]", spec.Op, spec.Module, occ)
			}
			if rate := vec.VectorRate(); rate <= 0 || rate > 1 {
				t.Errorf("%s/%s: vector rate %.3f outside (0, 1]", spec.Op, spec.Module, rate)
			}
		}
		t.Logf("%s/%s: %d/%d faults marched in %d marches (occupancy %.2f)",
			spec.Op, spec.Module, vec.VectorFaults, spec.NumFaults, vec.Marches, vec.LaneOccupancy())
		vectorTotal += vec.VectorFaults
	}
	if vectorTotal == 0 {
		t.Error("no faults marched in any module family; the regression does not exercise the march engine")
	}
}

// TestTMXMBitParallelBitIdentical mirrors the regression for the t-MxM
// campaign path.
func TestTMXMBitParallelBitIdentical(t *testing.T) {
	for _, mod := range []faults.Module{faults.ModSched, faults.ModPipe} {
		// Dense enough to fill whole lane chunks; a sparse t-MxM spec
		// would fall through to the scalar path and march nothing.
		spec := TMXMSpec{Module: mod, Kind: 2 /* Random */, NumFaults: 10_000, Seed: 79}
		vec, err := RunTMXM(spec)
		if err != nil {
			t.Fatal(err)
		}
		if vec.VectorFaults == 0 {
			t.Errorf("%s: no faults marched; the spec no longer exercises the march engine", mod)
		}
		spec.NoBitParallel = true
		plain, err := RunTMXM(spec)
		if err != nil {
			t.Fatal(err)
		}
		if vec.Tally != plain.Tally {
			t.Fatalf("%s tally: marched %+v, NoBitParallel %+v", mod, vec.Tally, plain.Tally)
		}
		if vec.Patterns != plain.Patterns {
			t.Fatalf("%s patterns: %v vs %v", mod, vec.Patterns, plain.Patterns)
		}
		if !reflect.DeepEqual(vec.PatternErrs, plain.PatternErrs) {
			t.Fatalf("%s pattern error pools differ", mod)
		}
		if plain.VectorFaults != 0 {
			t.Errorf("%s: NoBitParallel run reported %d vector faults", mod, plain.VectorFaults)
		}
		if vt, pt := vec.SimCycles+vec.SkippedCycles, plain.SimCycles+plain.SkippedCycles; vt != pt {
			t.Errorf("%s: cycle accounting: %d != %d", mod, vt, pt)
		}
	}
}

// TestMicroModeLattice runs one spec through all four engine modes —
// BitParallel (default), Pruned, FastForward, FullReplay — and demands
// byte-identical campaign results from every rung.
func TestMicroModeLattice(t *testing.T) {
	// Dense enough that the BitParallel rung actually marches (near-full
	// lane chunks); every rung below it strips one engine layer.
	base := Spec{Op: isa.OpFSIN, Range: faults.RangeMedium, Module: faults.ModPipe, NumFaults: 12_000, Seed: 481}
	modes := []struct {
		name string
		mod  func(*Spec)
	}{
		{"BitParallel", func(*Spec) {}},
		{"Pruned", func(s *Spec) { s.NoBitParallel = true }},
		{"FastForward", func(s *Spec) { s.NoBitParallel, s.NoPrune = true, true }},
		{"FullReplay", func(s *Spec) { s.NoBitParallel, s.NoPrune, s.NoFastForward = true, true, true }},
	}
	var ref *Result
	for _, m := range modes {
		spec := base
		m.mod(&spec)
		res, err := RunMicro(spec)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		t.Run(m.name, func(t *testing.T) { assertMicroEqual(t, ref, res) })
	}
}

// TestBitParallelCrossValidation is the standing ground-truth guard for
// the march engine: for every module family, run the bit-parallel first
// phase white-box (marchStripe), then fully re-simulate at least 200 of
// its vector-classified faults scalar-ly from cycle 0 — no checkpoints,
// no pruning — and demand the march's outcome agree on DUE
// status, final memory image, and the classified record (tally,
// syndrome and bits-wrong pools included).
func TestBitParallelCrossValidation(t *testing.T) {
	const wantPerModule = 200
	// Per-module specs: an op that keeps the module busy (FFMA for the
	// FP32 units, IMAD for INT, FSIN for the SFU path) and a fault count
	// high enough that well over wantPerModule faults survive pruning
	// into the march.
	cases := []struct {
		mod faults.Module
		op  isa.Opcode
		n   int
	}{
		{faults.ModFP32, isa.OpFFMA, 12_000},
		{faults.ModINT, isa.OpIMAD, 4_000},
		{faults.ModSFU, isa.OpFSIN, 3_000},
		{faults.ModSFUCtl, isa.OpFSIN, 3_000},
		{faults.ModSched, isa.OpFADD, 8_000},
		{faults.ModPipe, isa.OpFSIN, 6_000},
	}
	for _, tc := range cases {
		mod := tc.mod
		t.Run(mod.String(), func(t *testing.T) {
			spec := Spec{Op: tc.op, Range: faults.RangeMedium, Module: mod, NumFaults: tc.n, Seed: 490}
			p, err := spec.plan()
			if err != nil {
				t.Fatal(err)
			}
			prog, dp, jobs := p.prog, p.draws, p.jobs

			// The march phase as run invokes it: one worker owns the
			// whole stripe.
			var ec Counters
			machine := rtl.New()
			dead := make([]bool, len(jobs))
			outs := p.marchStripe(t.Context(), 0, 1, &ec, machine, dead)
			if ec.VectorFaults != uint64(len(outs)) {
				t.Fatalf("march fell back to scalar simulation: %d vector faults, %d outcomes",
					ec.VectorFaults, len(outs))
			}

			// Scalar ground truth: full replay from cycle 0 on fresh state.
			fullSim := func(j faultJob) ([]uint32, error) {
				d := dp[j.draw]
				g := append([]uint32(nil), d.global...)
				machine.Inject(j.fault)
				err := machine.Run(prog, 1, MicroThreads, g, 0, d.goldenCycles*watchdogFactor+1000)
				return g, err
			}
			classified := func(j faultJob, g []uint32, err error) *Result {
				res := &Result{Spec: spec}
				res.add(classify(spec.Op, j.fault, machine, g, dp[j.draw].golden, err))
				return res
			}

			checked := 0
			for i := range jobs {
				if checked >= wantPerModule {
					break
				}
				sr, ok := outs[i]
				if !ok {
					continue
				}
				j := jobs[i]
				g, err := fullSim(j)
				if (sr.err == nil) != (err == nil) {
					t.Fatalf("fault %+v: DUE mismatch: march %v, scalar %v", j.fault, sr.err, err)
				}
				if err != nil && sr.err.Error() != err.Error() {
					t.Fatalf("fault %+v: DUE causes differ: march %v, scalar %v", j.fault, sr.err, err)
				}
				if err == nil && !reflect.DeepEqual(sr.g, g) {
					t.Fatalf("fault %+v: final memory images differ", j.fault)
				}
				mg := sr.g
				if sr.err != nil {
					mg = g // classify ignores the image on DUE; align the inputs
				}
				mr, fr := classified(j, mg, sr.err), classified(j, g, err)
				if mr.Tally != fr.Tally {
					t.Fatalf("fault %+v: classification differs: march %+v, scalar %+v", j.fault, mr.Tally, fr.Tally)
				}
				if !reflect.DeepEqual(mr.Syndromes, fr.Syndromes) || !reflect.DeepEqual(mr.BitsWrong, fr.BitsWrong) {
					t.Fatalf("fault %+v: syndromes differ", j.fault)
				}
				checked++
			}
			if checked < wantPerModule {
				t.Fatalf("cross-validated only %d marched faults (want >= %d); densify the spec", checked, wantPerModule)
			}
			t.Logf("cross-validated %d marched faults (%d marches, occupancy %.2f)",
				checked, ec.Marches, float64(ec.VectorFaults)/float64(ec.Marches)/float64(rtl.VecMaxLanes))
		})
	}
}
