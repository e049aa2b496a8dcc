package rtlfi

import (
	"context"
	"testing"

	"gpufi/internal/emu"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/rtl"
	"gpufi/internal/stats"
)

// TestGoldenEquivalenceAllMicrobenchmarks is the framework's anchor
// property: for every characterised opcode and every input range, the
// fault-free RTL machine and the functional emulator must produce
// bit-identical memory images — otherwise syndromes measured at RTL level
// would not transfer to software injection.
func TestGoldenEquivalenceAllMicrobenchmarks(t *testing.T) {
	r := stats.NewRNG(31337)
	ops := append(isa.CharacterizedOpcodes(), ExtendedOpcodes()...)
	m := rtl.New()
	for _, op := range ops {
		prog, err := BuildMicro(op)
		if err != nil {
			t.Fatal(err)
		}
		for _, rng := range faults.AllRanges() {
			for draw := 0; draw < 3; draw++ {
				g := MicroInputs(op, rng, r)
				gRTL := append([]uint32(nil), g...)
				gEmu := append([]uint32(nil), g...)
				if err := m.Run(prog, 1, MicroThreads, gRTL, 0, 1_000_000); err != nil {
					t.Fatalf("%s/%s rtl: %v", op, rng, err)
				}
				if _, err := emu.Run(&emu.Launch{
					Prog: prog, Grid: 1, Block: MicroThreads, Global: gEmu,
				}); err != nil {
					t.Fatalf("%s/%s emu: %v", op, rng, err)
				}
				for i := range gRTL {
					if gRTL[i] != gEmu[i] {
						t.Fatalf("%s/%s draw %d: word %d rtl=%#x emu=%#x",
							op, rng, draw, i, gRTL[i], gEmu[i])
					}
				}
			}
		}
	}
}

// TestExtendedOpcodeCampaigns runs the §VII extension campaigns end to end.
func TestExtendedOpcodeCampaigns(t *testing.T) {
	for _, op := range ExtendedOpcodes() {
		res, err := RunMicroCtx(context.Background(), Spec{
			Op: op, Range: faults.RangeMedium, Module: faults.ModSFU,
			NumFaults: 300, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tally.Injections != 300 {
			t.Fatalf("%s: %d injections", op, res.Tally.Injections)
		}
		if res.Tally.SDCs() == 0 {
			t.Errorf("%s: no SDCs from SFU injection (implausible)", op)
		}
	}
}

// TestWorkerCountInvariance: campaign results must not depend on the
// parallelism level.
func TestWorkerCountInvariance(t *testing.T) {
	results := make([]*Result, 0, 3)
	for _, workers := range []int{1, 3, 7} {
		res, err := RunMicroCtx(context.Background(), Spec{
			Op: isa.OpIMUL, Range: faults.RangeLarge, Module: faults.ModINT,
			NumFaults: 150, Seed: 77, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Tally != results[0].Tally {
			t.Errorf("workers=%d tally %+v != workers=1 %+v", []int{1, 3, 7}[i], results[i].Tally, results[0].Tally)
		}
	}
}

// TestTMXMWorkerCountInvariance mirrors the invariance check for the
// t-MxM campaign path.
func TestTMXMWorkerCountInvariance(t *testing.T) {
	var base *TMXMResult
	for _, workers := range []int{1, 4} {
		res, err := RunTMXMCtx(context.Background(), TMXMSpec{
			Module: faults.ModSched, Kind: 2, /* Random */
			NumFaults: 120, Seed: 9, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Tally != base.Tally || res.Patterns != base.Patterns {
			t.Errorf("worker-dependent t-MxM results")
		}
	}
}

// TestDetailedReportFields spot-checks the §IV-A detailed-report content.
func TestDetailedReportFields(t *testing.T) {
	res, err := RunMicroCtx(context.Background(), Spec{
		Op: isa.OpFADD, Range: faults.RangeMedium, Module: faults.ModPipe,
		NumFaults: 500, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Details) == 0 {
		t.Skip("no SDCs in this small campaign")
	}
	for _, d := range res.Details {
		if d.Threads < 1 {
			t.Errorf("detail without corrupted threads: %+v", d)
		}
		if d.Golden == d.Faulty {
			t.Errorf("detail with identical golden/faulty words: %+v", d)
		}
		if d.BitsWrong < 1 || d.BitsWrong > 32 {
			t.Errorf("bits wrong = %d", d.BitsWrong)
		}
		if d.Fault.Module != faults.ModPipe {
			t.Errorf("module mismatch in %+v", d)
		}
	}
}
