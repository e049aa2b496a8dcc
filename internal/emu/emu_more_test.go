package emu

import (
	"errors"
	"slices"
	"testing"

	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// TestDeepNestedDivergence drives the SIMT stack towards its depth bound
// without crossing it: 20 nested if-then regions.
func TestDeepNestedDivergence(t *testing.T) {
	b := kasm.New("deep")
	b.S2R(rTid, isa.SRTid)
	b.MovI(rC, 0)
	var nest func(depth int)
	nest = func(depth int) {
		if depth == 0 {
			b.IAddI(rC, rC, 1)
			return
		}
		b.AndI(rTmp, rTid, int32(1<<uint(depth%5)))
		b.ISetPI(isa.P(0), isa.CmpEQ, rTmp, 0)
		b.If(isa.P(0), func() {
			b.IAddI(rC, rC, 1)
			nest(depth - 1)
		})
	}
	nest(20)
	b.Gst(rTid, 0, rC)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 32)
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: 32, Global: global}); err != nil {
		t.Fatal(err)
	}
	// Thread 0 passes every even-bit test: it reaches the innermost body.
	if global[0] != 21 {
		t.Errorf("thread 0 depth counter = %d, want 21", global[0])
	}
}

// TestEventRegisterAccessors exercises the read side of the
// instrumentation Event: each executing lane reports its own operands and
// result, a predicated instruction shows only its guarded lanes, and an
// instruction without a data output reports none.
func TestEventRegisterAccessors(t *testing.T) {
	b := kasm.New("acc")
	b.S2R(rTid, isa.SRTid)
	b.IAddI(rA, rTid, 40)
	b.ISetPI(isa.P(2), isa.CmpLT, rTid, 4)
	b.GstIf(isa.P(2), rTid, 0, rA)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 32)
	seen := map[isa.Opcode]bool{}
	hooks := Hooks{Post: func(ev *Event) {
		seen[ev.Instr.Op] = true
		switch ev.Instr.Op {
		case isa.OpIADD:
			if ev.ActiveCount() != 32 {
				t.Errorf("IADD active lanes = %d, want 32", ev.ActiveCount())
			}
			if a, imm := ev.SrcA(5), ev.SrcB(5); a != 5 || imm != 40 {
				t.Errorf("IADD lane 5 operands = %d, %d, want 5, 40", a, imm)
			}
			if d, ok := ev.DstValue(5); !ok || d != 45 {
				t.Errorf("IADD lane 5 result = %d, %v, want 45, true", d, ok)
			}
		case isa.OpISETP:
			if _, ok := ev.DstValue(0); ok {
				t.Error("ISETP reports a data output")
			}
		case isa.OpGST:
			if ev.Active != 0xF {
				t.Errorf("GST active mask = %#x, want the 4 guarded lanes", ev.Active)
			}
			if addr := ev.SrcA(3); addr != 3 {
				t.Errorf("GST lane 3 address = %d, want 3", addr)
			}
			if d, ok := ev.DstValue(3); !ok || d != 43 {
				t.Errorf("GST lane 3 stored value = %d, %v, want 43, true", d, ok)
			}
		}
	}}
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: 32, Global: global, Hooks: hooks}); err != nil {
		t.Fatal(err)
	}
	if !seen[isa.OpIADD] || !seen[isa.OpISETP] || !seen[isa.OpGST] {
		t.Fatalf("hook saw %v, want IADD, ISETP and GST", seen)
	}
	for i, v := range global {
		want := uint32(0)
		if i < 4 {
			want = uint32(40 + i)
		}
		if v != want {
			t.Errorf("global[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestHookDispatch pins how many times Post fires in each block of a
// three-block launch: never before a countdown arms, once per warp
// instruction with a non-zero guard while armed, and never after the hook
// calls Disarm — in later blocks and after a Resume included. Engine
// counters cannot see hook dispatch, so a hook that silently stopped (or
// kept) firing is caught here or nowhere.
func TestHookDispatch(t *testing.T) {
	b := kasm.New("hooks")
	b.S2R(rTid, isa.SRTid)
	b.MovI(rC, 8)
	b.MovI(rA, 0)
	b.Loop(func() {
		b.IAdd(rA, rA, rTid)
		b.IAddI(rC, rC, -1)
	}, func() isa.Pred {
		b.ISetPI(isa.P(1), isa.CmpGT, rC, 0)
		return isa.P(1)
	})
	b.Gst(rTid, 0, rA)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	const grid = 3
	launch := func(hooks Hooks) *Launch {
		return &Launch{Prog: prog, Grid: grid, Block: 32, Global: make([]uint32, 32), Hooks: hooks}
	}
	res, err := Run(launch(Hooks{}))
	if err != nil {
		t.Fatal(err)
	}
	perBlock := res.DynThreadInstrs / grid
	// The kernel never diverges, so every warp instruction with a non-zero
	// guard runs on all 32 lanes: a block issues per of them, and rest(at)
	// of them run in block 1 after the launch has counted at.
	per := int(perBlock / WarpSize)
	rest := func(at uint64) int { return int((2*perBlock - at) / WarpSize) }

	// calls counts Post invocations per block.
	var calls [grid]int
	count := func(ev *Event) { calls[ev.Block]++ }
	var armedAt uint64
	onArm := func(r *Result) { armedAt = r.DynThreadInstrs }
	disarm := func(ev *Event) { count(ev); ev.Disarm() }
	cases := []struct {
		name  string
		hooks Hooks
		want  func() [grid]int
	}{
		{"no hooks", Hooks{}, func() [grid]int { return [grid]int{} }},
		{"Post hook", Hooks{Post: count}, func() [grid]int { return [grid]int{per, per, per} }},
		{"countdown before arming", Hooks{Post: count, ArmAfter: 1 << 40, OnArm: onArm},
			func() [grid]int { return [grid]int{} }},
		{"countdown armed in block 1", Hooks{Post: count, ArmAfter: perBlock + perBlock/2, OnArm: onArm},
			func() [grid]int {
				if armedAt <= perBlock || armedAt >= 2*perBlock {
					t.Errorf("countdown armed at %d, outside block 1", armedAt)
				}
				return [grid]int{0, rest(armedAt), per}
			}},
		{"Disarm in block 1", Hooks{Post: func(ev *Event) {
			count(ev)
			if ev.Block == 1 {
				ev.Disarm()
			}
		}}, func() [grid]int { return [grid]int{per, 1, 0} }},
		{"countdown, then Disarm", Hooks{Post: disarm, ArmAfter: perBlock / 2, OnArm: onArm},
			func() [grid]int { return [grid]int{1, 0, 0} }},
	}
	for _, tc := range cases {
		calls, armedAt = [grid]int{}, 0
		if _, err := Run(launch(tc.hooks)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := tc.want(); calls != want {
			t.Errorf("%s: Post fired %v times per block, want %v", tc.name, calls, want)
		}
	}

	// Resumed from a snapshot inside block 1, a hook fires from the
	// snapshot on; one that disarms fires once.
	var snap *Snapshot
	var image []uint32 // the global image at capture, which the snapshot does not hold
	rec := launch(Hooks{})
	if _, err := RunCheckpointed(rec, perBlock+perBlock/2, 1<<40, func(s *Snapshot) {
		snap, image = s, slices.Clone(rec.Global)
	}); err != nil || snap == nil {
		t.Fatalf("checkpointed run: %v, snapshot %v", err, snap)
	}
	at := snap.Res().DynThreadInstrs
	for _, tc := range []struct {
		name string
		post func(*Event)
		want [grid]int
	}{
		{"Post hook after Resume", count, [grid]int{0, rest(at), per}},
		{"Disarm after Resume", disarm, [grid]int{0, 1, 0}},
	} {
		calls = [grid]int{}
		l := launch(Hooks{Post: tc.post})
		copy(l.Global, image)
		if _, err := Resume(l, snap); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if calls != tc.want {
			t.Errorf("%s: Post fired %v times per block, want %v", tc.name, calls, tc.want)
		}
	}
}

// TestShiftLogicSelectOps validates the support ALU ops against host
// arithmetic.
func TestShiftLogicSelectOps(t *testing.T) {
	b := kasm.New("alu")
	b.S2R(rTid, isa.SRTid)
	b.MovI(rA, -8)   // 0xFFFFFFF8
	b.Shl(rB, rA, 4) // 0xFFFFFF80
	b.Gst(rTid, 0, rB)
	b.Shr(rB, rA, 4) // logical: 0x0FFFFFFF
	b.Gst(rTid, 32, rB)
	b.MovI(rC, 0x0F0F)
	b.And(rB, rA, rC)
	b.Gst(rTid, 64, rB)
	b.Or(rB, rA, rC)
	b.Gst(rTid, 96, rB)
	b.Xor(rB, rA, rC)
	b.Gst(rTid, 128, rB)
	b.MovI(rC, 5)
	b.IMin(rB, rA, rC)
	b.Gst(rTid, 160, rB)
	b.IMax(rB, rA, rC)
	b.Gst(rTid, 192, rB)
	b.ISetPI(isa.P(1), isa.CmpGT, rTid, 15)
	b.Sel(rB, rA, rC, isa.P(1))
	b.Gst(rTid, 224, rB)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 256)
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: 32, Global: global}); err != nil {
		t.Fatal(err)
	}
	a := uint32(0xFFFFFFF8)
	c := uint32(0x0F0F)
	if global[0] != a<<4 {
		t.Errorf("SHL = %#x", global[0])
	}
	if global[32] != a>>4 {
		t.Errorf("SHR = %#x (must be logical)", global[32])
	}
	if global[64] != a&c || global[96] != a|c || global[128] != a^c {
		t.Error("AND/OR/XOR wrong")
	}
	if int32(global[160]) != -8 || int32(global[192]) != 5 {
		t.Errorf("IMNMX = %d/%d", int32(global[160]), int32(global[192]))
	}
	if global[224] != 5 { // tid 0: P1 false -> selects rC (now 5)
		t.Errorf("SEL lane 0 = %#x", global[224])
	}
	if global[224+16] != a { // tid 16: P1 true -> selects rA
		t.Errorf("SEL lane 16 = %#x", global[224+16])
	}
}

// TestF2II2FThroughKernel validates the conversion ops end to end.
func TestF2II2FThroughKernel(t *testing.T) {
	b := kasm.New("cvt")
	b.S2R(rTid, isa.SRTid)
	b.MovF(rA, -3.75)
	b.F2I(rB, rA)
	b.Gst(rTid, 0, rB)
	b.MovI(rA, -17)
	b.I2F(rB, rA)
	b.Gst(rTid, 32, rB)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 64)
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: 1, Global: global}); err != nil {
		t.Fatal(err)
	}
	if int32(global[0]) != -3 {
		t.Errorf("F2I(-3.75) = %d, want -3 (truncate)", int32(global[0]))
	}
	if fromBits(global[32]) != -17 {
		t.Errorf("I2F(-17) = %v", fromBits(global[32]))
	}
}

// TestSharedOutOfBoundsIsDUE mirrors the global OOB test for shared memory.
func TestSharedOutOfBoundsIsDUE(t *testing.T) {
	b := kasm.New("soob")
	b.MovI(rAddr, 100)
	b.Sld(rA, rAddr, 0)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(&Launch{Prog: prog, Grid: 1, Block: 32, SharedWords: 16})
	if !errors.Is(err, ErrBadAddress) {
		t.Errorf("err = %v, want ErrBadAddress", err)
	}
}

// TestNegativeAddressIsDUE checks signed address interpretation.
func TestNegativeAddressIsDUE(t *testing.T) {
	b := kasm.New("neg")
	b.MovI(rAddr, -5)
	b.Gld(rA, rAddr, 0)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(&Launch{Prog: prog, Grid: 1, Block: 1, Global: make([]uint32, 16)})
	if !errors.Is(err, ErrBadAddress) {
		t.Errorf("err = %v, want ErrBadAddress", err)
	}
}

// TestImmediateOffsetAddressing verifies positive and negative word
// offsets on loads/stores.
func TestImmediateOffsetAddressing(t *testing.T) {
	b := kasm.New("off")
	b.MovI(rAddr, 8)
	b.Gld(rA, rAddr, -3) // word 5
	b.Gst(rAddr, 4, rA)  // word 12
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 16)
	global[5] = 1234
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: 1, Global: global}); err != nil {
		t.Fatal(err)
	}
	if global[12] != 1234 {
		t.Errorf("offset addressing result = %d", global[12])
	}
}

// TestResultCountsExcludeInactiveLanes checks that guarded-off lanes are
// not counted (the basis of the NVBitFI-style dynamic instruction index).
func TestResultCountsExcludeInactiveLanes(t *testing.T) {
	b := kasm.New("cnt")
	b.S2R(rTid, isa.SRTid)
	b.ISetPI(isa.P(0), isa.CmpLT, rTid, 5)
	b.Emit(isa.Instr{Op: isa.OpIADD, Guard: isa.P(0), Dst: rA, SrcA: rTid, SrcB: rTid})
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&Launch{Prog: prog, Grid: 1, Block: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerOpcode[isa.OpIADD] != 5 {
		t.Errorf("guarded IADD count = %d, want 5", res.PerOpcode[isa.OpIADD])
	}
}
