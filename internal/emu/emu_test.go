package emu

import (
	"errors"
	"math"
	"testing"

	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// Register conventions for the test kernels.
const (
	rTid  = isa.Reg(1)
	rA    = isa.Reg(2)
	rB    = isa.Reg(3)
	rC    = isa.Reg(4)
	rAddr = isa.Reg(5)
	rTmp  = isa.Reg(6)
	rCta  = isa.Reg(7)
	rNtid = isa.Reg(8)
)

// vecAddProg computes out[i] = a[i] + b[i] for global layout
// [a(n) | b(n) | out(n)].
func vecAddProg(t *testing.T, n int32) *kasm.Program {
	t.Helper()
	b := kasm.New("vecadd")
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNtid, isa.SRNtid)
	b.IMad(rTid, rCta, rNtid, rTid) // global thread id
	b.ISetPI(isa.P(0), isa.CmpLT, rTid, n)
	b.GldIf(isa.P(0), rA, rTid, 0)
	b.IAddI(rAddr, rTid, n)
	b.GldIf(isa.P(0), rB, rAddr, 0)
	b.FAdd(rC, rA, rB)
	b.IAddI(rAddr, rTid, 2*n)
	b.GstIf(isa.P(0), rAddr, 0, rC)
	p, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func f32(v float32) uint32      { return math.Float32bits(v) }
func fromBits(b uint32) float32 { return math.Float32frombits(b) }

func TestVectorAdd(t *testing.T) {
	const n = 100
	prog := vecAddProg(t, n)
	global := make([]uint32, 3*n)
	for i := 0; i < n; i++ {
		global[i] = f32(float32(i))
		global[n+i] = f32(float32(2 * i))
	}
	res, err := Run(&Launch{Prog: prog, Grid: 2, Block: 64, Global: global})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := fromBits(global[2*n+i]); got != float32(3*i) {
			t.Fatalf("out[%d] = %v, want %v", i, got, float32(3*i))
		}
	}
	if res.DynThreadInstrs == 0 || res.PerOpcode[isa.OpFADD] == 0 {
		t.Error("instruction counters not populated")
	}
	// 128 threads execute FADD (it is unguarded).
	if res.PerOpcode[isa.OpFADD] != 128 {
		t.Errorf("FADD count = %d, want 128", res.PerOpcode[isa.OpFADD])
	}
	// Only n threads execute the guarded store.
	if res.PerOpcode[isa.OpGST] != n {
		t.Errorf("GST count = %d, want %d", res.PerOpcode[isa.OpGST], n)
	}
}

func TestIfElseDivergence(t *testing.T) {
	// Even lanes write 1.0, odd lanes write 2.0.
	b := kasm.New("ifelse")
	b.S2R(rTid, isa.SRTid)
	b.AndI(rTmp, rTid, 1)
	b.ISetPI(isa.P(0), isa.CmpEQ, rTmp, 0)
	b.IfElse(isa.P(0),
		func() { b.MovF(rC, 1.0) },
		func() { b.MovF(rC, 2.0) },
	)
	b.Gst(rTid, 0, rC)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 32)
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: 32, Global: global}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := float32(1.0)
		if i%2 == 1 {
			want = 2.0
		}
		if got := fromBits(global[i]); got != want {
			t.Fatalf("lane %d = %v, want %v", i, got, want)
		}
	}
}

func TestDivergentLoopTripCounts(t *testing.T) {
	// Each thread increments a counter tid+1 times: out[tid] = tid+1.
	b := kasm.New("divloop")
	b.S2R(rTid, isa.SRTid)
	b.MovI(rC, 0)
	b.MovI(rTmp, 0)
	b.Label("top")
	b.IAddI(rC, rC, 1)
	b.IAddI(rTmp, rTmp, 1)
	b.ISetP(isa.P(0), isa.CmpLE, rTmp, rTid)
	b.BraIf(isa.P(0), "top")
	b.Gst(rTid, 0, rC)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 64)
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: 64, Global: global}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if global[i] != uint32(i+1) {
			t.Fatalf("out[%d] = %d, want %d", i, global[i], i+1)
		}
	}
}

func TestNestedDivergence(t *testing.T) {
	// out = 3 for lanes where tid%4==0, 2 for tid%2==0 otherwise, 1 else.
	b := kasm.New("nested")
	b.S2R(rTid, isa.SRTid)
	b.MovI(rC, 1)
	b.AndI(rTmp, rTid, 1)
	b.ISetPI(isa.P(0), isa.CmpEQ, rTmp, 0)
	b.If(isa.P(0), func() {
		b.MovI(rC, 2)
		b.AndI(rTmp, rTid, 3)
		b.ISetPI(isa.P(1), isa.CmpEQ, rTmp, 0)
		b.If(isa.P(1), func() {
			b.MovI(rC, 3)
		})
	})
	b.Gst(rTid, 0, rC)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 32)
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: 32, Global: global}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := uint32(1)
		switch {
		case i%4 == 0:
			want = 3
		case i%2 == 0:
			want = 2
		}
		if global[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, global[i], want)
		}
	}
}

func TestBarrierAndSharedMemory(t *testing.T) {
	// Block-wide reverse through shared memory: out[i] = in[blockDim-1-i].
	const blockDim = 64
	b := kasm.New("reverse")
	b.S2R(rTid, isa.SRTid)
	b.Gld(rA, rTid, 0)
	b.Sst(rTid, 0, rA)
	b.Bar()
	b.MovI(rTmp, blockDim-1)
	b.IMadI(rAddr, rTid, -1, rTmp) // blockDim-1-tid
	b.Sld(rB, rAddr, 0)
	b.Gst(rTid, blockDim, rB)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 2*blockDim)
	for i := 0; i < blockDim; i++ {
		global[i] = uint32(i * 10)
	}
	if _, err := Run(&Launch{
		Prog: prog, Grid: 1, Block: blockDim,
		Global: global, SharedWords: blockDim,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blockDim; i++ {
		if global[blockDim+i] != uint32((blockDim-1-i)*10) {
			t.Fatalf("out[%d] = %d", i, global[blockDim+i])
		}
	}
}

func TestPartialWarp(t *testing.T) {
	b := kasm.New("partial")
	b.S2R(rTid, isa.SRTid)
	b.MovI(rC, 7)
	b.Gst(rTid, 0, rC)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 50)
	res, err := Run(&Launch{Prog: prog, Grid: 1, Block: 50, Global: global})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if global[i] != 7 {
			t.Fatalf("thread %d did not run", i)
		}
	}
	if res.PerOpcode[isa.OpGST] != 50 {
		t.Errorf("GST count = %d, want 50", res.PerOpcode[isa.OpGST])
	}
}

func TestGuardedEarlyExit(t *testing.T) {
	// Lanes >= 16 exit before the store.
	b := kasm.New("earlyexit")
	b.S2R(rTid, isa.SRTid)
	b.ISetPI(isa.P(0), isa.CmpGE, rTid, 16)
	b.Emit(isa.Instr{Op: isa.OpEXIT, Guard: isa.P(0)})
	b.MovI(rC, 9)
	b.Gst(rTid, 0, rC)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 32)
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: 32, Global: global}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := uint32(9)
		if i >= 16 {
			want = 0
		}
		if global[i] != want {
			t.Fatalf("out[%d] = %d, want %d", i, global[i], want)
		}
	}
}

func TestRZIsAlwaysZero(t *testing.T) {
	b := kasm.New("rz")
	b.MovI(isa.RZ, 42) // write to RZ must be dropped
	b.S2R(rTid, isa.SRTid)
	b.Gst(rTid, 0, isa.RZ)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := []uint32{0xFF}
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: 1, Global: global}); err != nil {
		t.Fatal(err)
	}
	if global[0] != 0 {
		t.Errorf("RZ stored %d, want 0", global[0])
	}
}

func TestOutOfBoundsLoadIsDUE(t *testing.T) {
	b := kasm.New("oob")
	b.MovI(rAddr, 1000)
	b.Gld(rA, rAddr, 0)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(&Launch{Prog: prog, Grid: 1, Block: 32, Global: make([]uint32, 8)})
	if !errors.Is(err, ErrBadAddress) {
		t.Errorf("err = %v, want ErrBadAddress", err)
	}
	var le *LaunchError
	if !errors.As(err, &le) || le.PC != 1 {
		t.Errorf("LaunchError position = %+v", le)
	}
}

func TestWatchdogCatchesInfiniteLoop(t *testing.T) {
	b := kasm.New("hang")
	b.Label("top")
	b.Bra("top")
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(&Launch{
		Prog: prog, Grid: 1, Block: 32,
		Global: nil, MaxDynInstrs: 10000,
	})
	if !errors.Is(err, ErrWatchdog) {
		t.Errorf("err = %v, want ErrWatchdog", err)
	}
}

func TestBarrierDivergenceIsDUE(t *testing.T) {
	// Half the warp branches around the barrier: illegal.
	b := kasm.New("badbar")
	b.S2R(rTid, isa.SRTid)
	b.AndI(rTmp, rTid, 1)
	b.ISetPI(isa.P(0), isa.CmpEQ, rTmp, 0)
	b.If(isa.P(0), func() { b.Bar() })
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(&Launch{Prog: prog, Grid: 1, Block: 32})
	if !errors.Is(err, ErrBarrierDivergence) {
		t.Errorf("err = %v, want ErrBarrierDivergence", err)
	}
}

func TestMultiWarpBarrierRelease(t *testing.T) {
	// Two warps must both pass the barrier.
	b := kasm.New("twowarps")
	b.S2R(rTid, isa.SRTid)
	b.Bar()
	b.MovI(rC, 5)
	b.Gst(rTid, 0, rC)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 64)
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: 64, Global: global}); err != nil {
		t.Fatal(err)
	}
	for i, v := range global {
		if v != 5 {
			t.Fatalf("thread %d stalled at barrier", i)
		}
	}
}

func TestTranscendentalOps(t *testing.T) {
	b := kasm.New("sfu")
	b.S2R(rTid, isa.SRTid)
	b.Gld(rA, rTid, 0)
	b.FSin(rB, rA)
	b.Gst(rTid, 32, rB)
	b.FExp(rB, rA)
	b.Gst(rTid, 64, rB)
	b.FRcp(rB, rA)
	b.Gst(rTid, 96, rB)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 128)
	for i := 0; i < 32; i++ {
		global[i] = f32(0.02 + float32(i)*0.04) // (0, pi/2)
	}
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: 32, Global: global}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		x := float64(fromBits(global[i]))
		if got := float64(fromBits(global[32+i])); math.Abs(got-math.Sin(x)) > 1e-6 {
			t.Errorf("sin(%v) = %v", x, got)
		}
		if got := float64(fromBits(global[64+i])); math.Abs(got-math.Exp(x))/math.Exp(x) > 1e-5 {
			t.Errorf("exp(%v) = %v", x, got)
		}
		if got := float64(fromBits(global[96+i])); math.Abs(got-1/x)/(1/x) > 1e-5 {
			t.Errorf("rcp(%v) = %v", x, got)
		}
	}
}

func TestPostHookObservesAndCorrupts(t *testing.T) {
	const n = 32
	prog := vecAddProg(t, n)
	global := make([]uint32, 3*n)
	for i := 0; i < n; i++ {
		global[i] = f32(1)
		global[n+i] = f32(2)
	}
	seenFADD := 0
	hooks := Hooks{Post: func(ev *Event) {
		if ev.Instr.Op != isa.OpFADD {
			return
		}
		seenFADD += ev.ActiveCount()
		// Corrupt lane 3's result: multiply by 2 (a 100% relative error,
		// the paper's example syndrome).
		if d, ok := ev.DstValue(3); ok {
			ev.CorruptDst(3, f32(fromBits(d)*2))
		}
		if ev.SrcA(3) != f32(1) || ev.SrcB(3) != f32(2) {
			t.Errorf("operand capture wrong: %x %x", ev.SrcA(3), ev.SrcB(3))
		}
	}}
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: n, Global: global, Hooks: hooks}); err != nil {
		t.Fatal(err)
	}
	if seenFADD != n {
		t.Errorf("hook saw %d FADD threads, want %d", seenFADD, n)
	}
	for i := 0; i < n; i++ {
		want := float32(3)
		if i == 3 {
			want = 6
		}
		if got := fromBits(global[2*n+i]); got != want {
			t.Errorf("out[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestCorruptStoreValue(t *testing.T) {
	b := kasm.New("st")
	b.S2R(rTid, isa.SRTid)
	b.MovI(rC, 10)
	b.Gst(rTid, 0, rC)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	global := make([]uint32, 32)
	hooks := Hooks{Post: func(ev *Event) {
		if ev.Instr.Op == isa.OpGST {
			if !ev.CorruptDst(7, 99) {
				t.Error("GST output not corruptible")
			}
		}
	}}
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: 32, Global: global, Hooks: hooks}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := uint32(10)
		if i == 7 {
			want = 99
		}
		if global[i] != want {
			t.Errorf("mem[%d] = %d, want %d", i, global[i], want)
		}
	}
}

func TestNthActiveLane(t *testing.T) {
	ev := Event{Active: 0b10110}
	wants := []int{1, 2, 4, -1}
	for n, want := range wants {
		if got := ev.NthActiveLane(n); got != want {
			t.Errorf("NthActiveLane(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestBadLaunchConfigs(t *testing.T) {
	b := kasm.New("k")
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	cases := []*Launch{
		{Prog: nil, Grid: 1, Block: 32},
		{Prog: prog, Grid: 0, Block: 32},
		{Prog: prog, Grid: 1, Block: 0},
		{Prog: prog, Grid: 1, Block: MaxBlockThreads + 1},
	}
	for i, l := range cases {
		if _, err := Run(l); !errors.Is(err, ErrBadLaunch) {
			t.Errorf("case %d: err = %v, want ErrBadLaunch", i, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	const n = 64
	run := func() []uint32 {
		prog := vecAddProg(t, n)
		global := make([]uint32, 3*n)
		for i := 0; i < n; i++ {
			global[i] = f32(float32(i) * 0.1)
			global[n+i] = f32(float32(i) * 0.3)
		}
		if _, err := Run(&Launch{Prog: prog, Grid: 2, Block: 32, Global: global}); err != nil {
			t.Fatal(err)
		}
		return global
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func BenchmarkEmulatorVecAdd(b *testing.B) {
	const n = 1024
	bb := kasm.New("vecadd")
	bb.S2R(rTid, isa.SRTid)
	bb.S2R(rCta, isa.SRCtaid)
	bb.S2R(rNtid, isa.SRNtid)
	bb.IMad(rTid, rCta, rNtid, rTid)
	bb.Gld(rA, rTid, 0)
	bb.Gld(rB, rTid, n)
	bb.FAdd(rC, rA, rB)
	bb.Gst(rTid, 2*n, rC)
	prog, err := bb.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	global := make([]uint32, 3*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(&Launch{Prog: prog, Grid: n / 256, Block: 256, Global: global}); err != nil {
			b.Fatal(err)
		}
	}
}
