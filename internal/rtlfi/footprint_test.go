package rtlfi

import (
	"context"
	"reflect"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/mxm"
	"gpufi/internal/rtl"
)

// ckptFootprint is what one prepared input draw's checkpoints hold.
type ckptFootprint struct {
	GoldenCycles uint64
	Ckpts        int // checkpoints per draw
	Rows         int // register rows per warp of the draw's largest snapshot
	RegWords     int // register words over all the draw's checkpoints
}

func drawFootprint(p *plan) ckptFootprint {
	d := p.draws[0]
	warps := (p.block + rtl.WarpSize - 1) / rtl.WarpSize
	fp := ckptFootprint{GoldenCycles: d.goldenCycles, Ckpts: len(d.ckpts.snaps)}
	for _, s := range d.ckpts.snaps {
		fp.Rows = max(fp.Rows, s.Rows())
		fp.RegWords += s.Rows() * warps * rtl.WarpSize
	}
	return fp
}

// TestCheckpointFootprint pins, for the first input draw of every
// micro-benchmark and of t-MxM, the golden cycles, the checkpoints, the
// register rows a snapshot keeps per warp (the machine's row mark, not
// the 64-row register file) and the register words the draw's
// checkpoints hold. Preparation is deterministic, so a change to any of
// them is a change to the machine's snapshots: a memory regression shows
// here as a counter diff, as simulated work does in TestEngineCounters.
// A PR that moves one on purpose updates the table and says why.
func TestCheckpointFootprint(t *testing.T) {
	want := map[string]ckptFootprint{
		"FADD":  {GoldenCycles: 193, Ckpts: 25, Rows: 6, RegWords: 5_888},
		"FMUL":  {GoldenCycles: 193, Ckpts: 25, Rows: 6, RegWords: 5_888},
		"FFMA":  {GoldenCycles: 209, Ckpts: 27, Rows: 6, RegWords: 6_784},
		"IADD":  {GoldenCycles: 161, Ckpts: 27, Rows: 6, RegWords: 5_824},
		"IMUL":  {GoldenCycles: 161, Ckpts: 27, Rows: 6, RegWords: 5_824},
		"IMAD":  {GoldenCycles: 177, Ckpts: 26, Rows: 6, RegWords: 6_208},
		"FSIN":  {GoldenCycles: 449, Ckpts: 25, Rows: 6, RegWords: 6_400},
		"FEXP":  {GoldenCycles: 545, Ckpts: 25, Rows: 6, RegWords: 6_464},
		"GLD":   {GoldenCycles: 93, Ckpts: 31, Rows: 3, RegWords: 3_520},
		"GST":   {GoldenCycles: 107, Ckpts: 27, Rows: 3, RegWords: 3_328},
		"BRA":   {GoldenCycles: 387, Ckpts: 25, Rows: 7, RegWords: 9_152},
		"ISET":  {GoldenCycles: 197, Ckpts: 25, Rows: 6, RegWords: 4_928},
		"t-MxM": {GoldenCycles: 2_137, Ckpts: 25, Rows: 18, RegWords: 24_576},
	}
	got := map[string]ckptFootprint{}
	for _, op := range isa.CharacterizedOpcodes() {
		p, err := Spec{Op: op, Range: faults.RangeMedium, Module: faults.ModPipe, Seed: 2021}.plan()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		got[op.String()] = drawFootprint(p)
	}
	p, err := TMXMSpec{Module: faults.ModPipe, Kind: mxm.TileRandom, Seed: 2021}.plan()
	if err != nil {
		t.Fatal(err)
	}
	got["t-MxM"] = drawFootprint(p)
	for name, fp := range got {
		if w, ok := want[name]; !ok || fp != w {
			t.Errorf("%s: footprint %+v, want %+v", name, fp, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d subjects, %d pinned footprints", len(got), len(want))
	}
}

// TestMicroAfterTMXMUnchanged: campaigns take their machines from one
// pool, so a micro-benchmark campaign run after a t-MxM campaign, whose
// machines come back with t-MxM's 18 written rows and liveness traces,
// must give a Result deep-equal to the same campaign run before it.
func TestMicroAfterTMXMUnchanged(t *testing.T) {
	spec := Spec{Op: isa.OpFADD, Range: faults.RangeMedium, Module: faults.ModPipe, NumFaults: 300, Seed: 7, Workers: 2}
	first, err := RunMicroCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTMXMCtx(context.Background(), TMXMSpec{Module: faults.ModPipe, Kind: mxm.TileRandom, NumFaults: 300, Seed: 7, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	again, err := RunMicroCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("RunMicro after RunTMXM differs from RunMicro before it:\nbefore %+v\nafter  %+v", first.Counters, again.Counters)
	}
}
