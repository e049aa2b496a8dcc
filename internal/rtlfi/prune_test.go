package rtlfi

import (
	"context"
	"reflect"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/rtl"
	"gpufi/internal/stats"
)

// TestMicroPruneBitIdentical is dead-site pruning's anchor regression,
// modeled on TestMicroFastForwardBitIdentical: pruned campaigns must be
// byte-identical to NoPrune runs across module families, and the cycle
// accounting must agree exactly — a dead fault's whole would-be replay is
// goldenCycles, which pruning moves wholesale into SkippedCycles.
// NoBitParallel on both sides isolates the pruning path.
func TestMicroPruneBitIdentical(t *testing.T) {
	specs := []Spec{
		{Op: isa.OpFFMA, Range: faults.RangeMedium, Module: faults.ModFP32, NumFaults: 400, Seed: 431, NoBitParallel: true},
		{Op: isa.OpIMAD, Range: faults.RangeLarge, Module: faults.ModINT, NumFaults: 400, Seed: 432, NoBitParallel: true},
		{Op: isa.OpFSIN, Range: faults.RangeMedium, Module: faults.ModSFU, NumFaults: 400, Seed: 433, NoBitParallel: true},
		{Op: isa.OpFADD, Range: faults.RangeMedium, Module: faults.ModPipe, NumFaults: 400, Seed: 434, NoBitParallel: true},
	}
	for _, spec := range specs {
		pruned, err := RunMicroCtx(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.NoPrune = true
		full, err := RunMicroCtx(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		assertMicroEqual(t, pruned, full)
		if pruned.PrunedFaults == 0 {
			t.Errorf("%s/%s: pruning classified no faults", spec.Op, spec.Module)
		}
		if full.PrunedFaults != 0 {
			t.Errorf("%s/%s: NoPrune run reported %d pruned faults", spec.Op, spec.Module, full.PrunedFaults)
		}
		if pt, ft := pruned.SimCycles+pruned.SkippedCycles, full.SimCycles+full.SkippedCycles; pt != ft {
			t.Errorf("%s/%s: cycle accounting: pruned %d simulated + %d skipped != %d full",
				spec.Op, spec.Module, pruned.SimCycles, pruned.SkippedCycles, ft)
		}
	}
}

// TestMicroPruneMatchesFullReplay ties the engine's modes together on an
// INT spec: every lattice point — BitParallel (the default: marching +
// pruning + fast-forward), Pruned (marching off), FastForward (pruning off
// too) — must reproduce the oracle's plain from-cycle-0 replays byte for
// byte and account exactly their cycles.
func TestMicroPruneMatchesFullReplay(t *testing.T) {
	checkMicroModes(t, Spec{Op: isa.OpIADD, Range: faults.RangeMedium, Module: faults.ModINT, NumFaults: 300, Seed: 440})
}

// TestTMXMPruneBitIdentical mirrors the regression for the t-MxM path.
func TestTMXMPruneBitIdentical(t *testing.T) {
	for _, mod := range []faults.Module{faults.ModSched, faults.ModPipe} {
		spec := TMXMSpec{Module: mod, Kind: 2 /* Random */, NumFaults: 200, Seed: 78, NoBitParallel: true}
		pruned, err := RunTMXMCtx(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.NoPrune = true
		full, err := RunTMXMCtx(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Tally != full.Tally {
			t.Fatalf("%s tally: pruned %+v, NoPrune %+v", mod, pruned.Tally, full.Tally)
		}
		if pruned.Patterns != full.Patterns {
			t.Fatalf("%s patterns: %v vs %v", mod, pruned.Patterns, full.Patterns)
		}
		if !reflect.DeepEqual(pruned.PatternErrs, full.PatternErrs) {
			t.Fatalf("%s pattern error pools differ", mod)
		}
		if pruned.GoldenCycles != full.GoldenCycles {
			t.Fatalf("%s golden cycles: %d vs %d", mod, pruned.GoldenCycles, full.GoldenCycles)
		}
		if pruned.PrunedFaults == 0 {
			t.Errorf("%s: pruning classified no faults", mod)
		}
		if pt, ft := pruned.SimCycles+pruned.SkippedCycles, full.SimCycles+full.SkippedCycles; pt != ft {
			t.Errorf("%s: cycle accounting: %d != %d", mod, pt, ft)
		}
	}
}

// TestDeadPruneCrossValidation is the standing conservatism guard for the
// liveness tracer: sample at least 200 dead-pruned faults per module
// across the characterised opcodes and full-simulate every one of them —
// each must complete without a DUE, in exactly the golden cycle count,
// with a memory image identical to the golden run (i.e. Masked).
// Everything derives from fixed seeds, so a regression reproduces.
func TestDeadPruneCrossValidation(t *testing.T) {
	const perModule = 200
	ops := isa.CharacterizedOpcodes()
	for _, mod := range faults.AllModules() {
		mod := mod
		t.Run(mod.String(), func(t *testing.T) {
			t.Parallel()
			rng := stats.NewRNG(0xDEAD0 + uint64(mod))
			sim := rtl.New()
			modBits := rtl.ModuleBits(mod)
			checked := 0
			for pass := 0; pass < 50 && checked < perModule; pass++ {
				for _, op := range ops {
					if checked >= perModule {
						break
					}
					if !ModuleUsed(mod, op) {
						continue
					}
					prog, err := BuildMicro(op)
					if err != nil {
						t.Fatal(err)
					}
					g := MicroInputs(op, faults.RangeMedium, rng)
					golden := append([]uint32(nil), g...)
					gm := rtl.New()
					live := &rtl.Liveness{}
					gm.TraceLiveness(live)
					if err := gm.Run(prog, 1, MicroThreads, golden, 0, 1_000_000); err != nil {
						t.Fatalf("golden run failed for %s: %v", op, err)
					}
					cycles := gm.Cycles()
					// Sample fault candidates; validate a bounded batch of
					// the dead ones per opcode so every module spreads its
					// quota across its characterised instructions.
					for tries, taken := 0, 0; tries < 4000 && taken < 25 && checked < perModule; tries++ {
						f := rtl.Fault{Module: mod, Bit: rng.Intn(modBits), Cycle: uint64(rng.Intn(int(cycles)))}
						if !live.DeadAt(f.Module, f.Bit, f.Cycle) {
							continue
						}
						taken++
						faulty := append([]uint32(nil), g...)
						sim.Inject(f)
						if err := sim.Run(prog, 1, MicroThreads, faulty, 0, cycles*watchdogFactor+1000); err != nil {
							t.Fatalf("dead-pruned fault %+v on %s caused a DUE: %v", f, op, err)
						}
						if sim.Cycles() != cycles {
							t.Fatalf("dead-pruned fault %+v on %s changed timing: %d cycles, golden %d",
								f, op, sim.Cycles(), cycles)
						}
						if !reflect.DeepEqual(faulty, golden) {
							t.Fatalf("dead-pruned fault %+v on %s corrupted memory (not Masked)", f, op)
						}
						checked++
					}
				}
			}
			if checked < perModule {
				t.Fatalf("validated only %d dead-pruned faults for %s (want >= %d)", checked, mod, perModule)
			}
		})
	}
}
