package rtlfi

import (
	"context"
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"gpufi/internal/emu"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/mxm"
	"gpufi/internal/stats"
)

func TestBuildMicroAllCharacterizedOpcodes(t *testing.T) {
	progs, err := CharacterizedPrograms()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 12 {
		t.Fatalf("built %d micro-benchmarks, want 12", len(progs))
	}
	for op, p := range progs {
		found := false
		for _, in := range p.Instrs {
			if in.Op == op {
				found = true
			}
		}
		if !found && op != isa.OpGLD && op != isa.OpGST && op != isa.OpBRA {
			t.Errorf("%s micro-benchmark does not contain the opcode", op)
		}
	}
}

func TestBuildMicroRejectsUncharacterized(t *testing.T) {
	if _, err := BuildMicro(isa.OpMOV); err == nil {
		t.Error("MOV must not have a micro-benchmark")
	}
}

func TestMicroBenchmarksRunCleanOnEmulator(t *testing.T) {
	r := stats.NewRNG(42)
	for _, op := range isa.CharacterizedOpcodes() {
		prog, err := BuildMicro(op)
		if err != nil {
			t.Fatal(err)
		}
		for _, rng := range faults.AllRanges() {
			g := MicroInputs(op, rng, r)
			if _, err := emu.Run(&emu.Launch{
				Prog: prog, Grid: 1, Block: MicroThreads, Global: g,
			}); err != nil {
				t.Errorf("%s/%s: %v", op, rng, err)
			}
		}
	}
}

func TestMicroInputsRespectRanges(t *testing.T) {
	r := stats.NewRNG(9)
	g := MicroInputs(isa.OpFADD, faults.RangeSmall, r)
	v := math.Float32frombits(g[inAOff])
	if v < 6.8e-6 || v >= 7.3e-6 {
		t.Errorf("small float input %v out of range", v)
	}
	g = MicroInputs(isa.OpFADD, faults.RangeLarge, r)
	v = math.Float32frombits(g[inAOff])
	if v < 3.8e9 || v >= 12.5e9 {
		t.Errorf("large float input %v out of range", v)
	}
	g = MicroInputs(isa.OpFSIN, faults.RangeMedium, r)
	v = math.Float32frombits(g[inAOff])
	if v <= 0 || v >= math.Pi/2 {
		t.Errorf("SFU input %v outside (0, pi/2)", v)
	}
	g = MicroInputs(isa.OpIADD, faults.RangeLarge, r)
	if int32(g[inAOff]) < 1_000_000_000 {
		t.Errorf("large int input %d", int32(g[inAOff]))
	}
	// Branch inputs must straddle the threshold.
	g = MicroInputs(isa.OpBRA, faults.RangeMedium, r)
	if int32(g[inAOff]) >= 0 || int32(g[inAOff+1]) <= 0 {
		t.Errorf("branch inputs do not diverge: %d %d", int32(g[inAOff]), int32(g[inAOff+1]))
	}
}

func TestModuleUsedMatchesPaper(t *testing.T) {
	// §V-B: FUs idle for GLD, GST, BRA, ISET.
	for _, op := range []isa.Opcode{isa.OpGLD, isa.OpGST, isa.OpBRA, isa.OpISET} {
		for _, mod := range []faults.Module{faults.ModFP32, faults.ModINT, faults.ModSFU} {
			if ModuleUsed(mod, op) {
				t.Errorf("%s considered active during %s", mod, op)
			}
		}
		if !ModuleUsed(faults.ModSched, op) || !ModuleUsed(faults.ModPipe, op) {
			t.Errorf("scheduler/pipeline must be characterised for %s", op)
		}
	}
	if !ModuleUsed(faults.ModFP32, isa.OpFFMA) || !ModuleUsed(faults.ModSFUCtl, isa.OpFSIN) {
		t.Error("FU routing wrong")
	}
}

func TestRunMicroRejectsIdleModule(t *testing.T) {
	_, err := RunMicroCtx(context.Background(), Spec{Op: isa.OpGLD, Module: faults.ModFP32, NumFaults: 1, Seed: 1})
	if err == nil {
		t.Error("expected idle-module error")
	}
}

func TestRunMicroFP32Campaign(t *testing.T) {
	res, err := RunMicroCtx(context.Background(), Spec{
		Op: isa.OpFFMA, Range: faults.RangeMedium, Module: faults.ModFP32,
		NumFaults: 400, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	ty := res.Tally
	if ty.Injections != 400 {
		t.Fatalf("injections = %d", ty.Injections)
	}
	if ty.Maskeds == 0 {
		t.Error("no masked faults (implausible)")
	}
	if ty.SDCs() == 0 {
		t.Error("no SDCs from FP32 injection during FFMA (implausible)")
	}
	if len(res.Syndromes) == 0 || len(res.Details) != ty.SDCs() {
		t.Errorf("syndromes/details inconsistent: %d syndromes, %d details, %d SDCs",
			len(res.Syndromes), len(res.Details), ty.SDCs())
	}
	for _, d := range res.Details {
		if d.FieldName == "" || d.FieldName == "?" {
			t.Errorf("detailed report missing field name: %+v", d)
		}
	}
	// FP32 datapath corruption on a dedicated per-thread unit is
	// dominantly single-thread (§V-B).
	if ty.SDCs() > 4 && ty.MultiShare() > 0.5 {
		t.Errorf("FP32 multi-thread share = %v, expected mostly single", ty.MultiShare())
	}
}

func TestRunMicroDeterministic(t *testing.T) {
	spec := Spec{
		Op: isa.OpIADD, Range: faults.RangeSmall, Module: faults.ModINT,
		NumFaults: 120, Seed: 33, Workers: 3,
	}
	a, err := RunMicroCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMicroCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tally != b.Tally {
		t.Errorf("tallies differ: %+v vs %+v", a.Tally, b.Tally)
	}
}

func TestRunMicroSchedulerMultiThread(t *testing.T) {
	res, err := RunMicroCtx(context.Background(), Spec{
		Op: isa.OpIADD, Range: faults.RangeMedium, Module: faults.ModSched,
		NumFaults: 600, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sched: %+v avgThreads=%.1f", res.Tally, res.Tally.AvgThreads())
	if res.Tally.SDCs() > 5 && res.Tally.MultiShare() < 0.3 {
		t.Errorf("scheduler multi-thread share = %v, paper reports >60%%", res.Tally.MultiShare())
	}
}

func TestRunTMXMPatterns(t *testing.T) {
	res, err := RunTMXMCtx(context.Background(), TMXMSpec{
		Module: faults.ModPipe, Kind: mxm.TileRandom,
		NumFaults: 400, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tmxm pipe: %+v patterns=%v", res.Tally, res.Patterns)
	if res.Tally.Injections != 400 {
		t.Fatalf("injections = %d", res.Tally.Injections)
	}
	if res.Tally.SDCs() == 0 {
		t.Error("no SDCs in t-MxM pipeline campaign (implausible)")
	}
	total := 0
	for _, n := range res.Patterns {
		total += n
	}
	if total != res.Tally.SDCs() {
		t.Errorf("pattern census %d != SDCs %d", total, res.Tally.SDCs())
	}
}

func TestRunTMXMRejectsFunctionalUnits(t *testing.T) {
	if _, err := RunTMXMCtx(context.Background(), TMXMSpec{Module: faults.ModFP32, NumFaults: 1}); err == nil {
		t.Error("t-MxM must reject FU injection (§V-D)")
	}
}

func TestReportWriters(t *testing.T) {
	res, err := RunMicroCtx(context.Background(), Spec{
		Op: isa.OpFFMA, Range: faults.RangeMedium, Module: faults.ModFP32,
		NumFaults: 400, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	var gen strings.Builder
	if err := res.WriteGeneralReport(&gen); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gen.String(), "op=FFMA") || !strings.Contains(gen.String(), "module=FP32") {
		t.Errorf("general report missing fields: %q", gen.String())
	}

	var det strings.Builder
	if err := res.WriteDetailedReport(&det); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(det.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != res.Tally.SDCs()+1 {
		t.Fatalf("detailed CSV rows = %d, want %d SDCs + header", len(rows), res.Tally.SDCs())
	}
	if len(rows[0]) != len(DetailedHeader) {
		t.Error("header width mismatch")
	}
	fb := res.FieldBreakdown()
	total := 0
	for field, n := range fb {
		if field == "" || field == "?" {
			t.Errorf("unnamed field in breakdown")
		}
		total += n
	}
	if total != res.Tally.SDCs() {
		t.Errorf("field breakdown sums to %d, want %d", total, res.Tally.SDCs())
	}
}
