package emu

import (
	"errors"
	"math/bits"
	"slices"
	"testing"

	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// TestLaneSafe: the decoder's taint rule on small programs. A program is
// lane-safe when it is barrier-free and no guard — a BRA's, an EXIT's or a
// data instruction's — can depend on a loaded word, however many
// instructions the value passes through and in whatever order they appear.
func TestLaneSafe(t *testing.T) {
	const rD, rE = isa.Reg(9), isa.Reg(10)
	p0, p1 := isa.P(0), isa.P(1)
	idx := func(b *kasm.Builder) {
		b.S2R(rTid, isa.SRTid)
		b.S2R(rCta, isa.SRCtaid)
	}
	for _, tc := range []struct {
		name string
		safe bool
		body func(b *kasm.Builder)
	}{
		{"a loaded value flows only into arithmetic, addresses and stores", true, func(b *kasm.Builder) {
			b.Gld(rA, rTid, 0)
			b.Gld(rB, rA, 64) // a gather: the address is tainted, no guard is
			b.FFma(rC, rA, rB, rA)
			b.Gst(rB, 128, rC)
		}},
		{"a branch on the thread index", true, func(b *kasm.Builder) {
			b.ISetPI(p0, isa.CmpLT, rTid, 7)
			b.If(p0, func() { b.Gld(rA, rTid, 0); b.Gst(rTid, 64, rA) })
		}},
		{"ISETP on a loaded value guards a branch", false, func(b *kasm.Builder) {
			b.Gld(rA, rTid, 0)
			b.ISetPI(p0, isa.CmpGT, rA, 0)
			b.If(p0, func() { b.Gst(rTid, 64, rA) })
		}},
		{"FSETP on a loaded value guards an EXIT", false, func(b *kasm.Builder) {
			b.Gld(rA, rTid, 0)
			b.MovF(rB, 1)
			b.FSetP(p1, isa.CmpLT, rA, rB)
			b.Emit(isa.Instr{Op: isa.OpEXIT, Guard: p1})
			b.Gst(rTid, 64, rA)
		}},
		{"SEL carries a loaded value into the compare of a branch", false, func(b *kasm.Builder) {
			b.Gld(rA, rTid, 0)
			b.ISetPI(p1, isa.CmpLT, rTid, 4) // clean selector
			b.Sel(rB, rA, rTid, p1)
			b.ISetPI(p0, isa.CmpEQ, rB, 3)
			b.If(p0, func() { b.Gst(rTid, 64, rB) })
		}},
		{"a predicate from a loaded value selects a SEL whose result a branch compares", false, func(b *kasm.Builder) {
			b.Gld(rA, rTid, 0)
			b.ISetPI(p1, isa.CmpLT, rA, 4)
			b.Sel(rB, rTid, rCta, p1)
			b.ISetPI(p0, isa.CmpEQ, rB, 3)
			b.If(p0, func() { b.Gst(rTid, 64, rB) })
		}},
		{"a data instruction guarded by a loaded predicate", false, func(b *kasm.Builder) {
			b.Gld(rA, rTid, 0)
			b.ISetPI(p1, isa.CmpLT, rA, 4)
			b.Emit(isa.Instr{Op: isa.OpMOV, Guard: p1, Dst: rB, SrcA: rTid})
			b.Gst(rTid, 64, rB)
		}},
		{"a write guarded by the thread index carries a loaded value into a branch", false, func(b *kasm.Builder) {
			b.Gld(rA, rTid, 0)
			b.ISetPI(p1, isa.CmpLT, rTid, 4)
			b.Emit(isa.Instr{Op: isa.OpMOV, Guard: p1, Dst: rB, SrcA: rA})
			b.ISetPI(p0, isa.CmpNE, rB, 0)
			b.If(p0, func() { b.Gst(rTid, 64, rB) })
		}},
		{"a write guarded by the thread index from clean values", true, func(b *kasm.Builder) {
			b.Gld(rA, rTid, 0)
			b.ISetPI(p1, isa.CmpLT, rTid, 4)
			b.Emit(isa.Instr{Op: isa.OpMOV, Guard: p1, Dst: rB, SrcA: rCta})
			b.ISetPI(p0, isa.CmpNE, rB, 0)
			b.If(p0, func() { b.Gst(rTid, 64, rA) })
		}},
		{"a loop counter to a constant bound", true, func(b *kasm.Builder) {
			b.MovI(rD, 0)
			b.Loop(func() {
				b.Gld(rA, rD, 0)
				b.IAddI(rD, rD, 1)
			}, func() isa.Pred {
				b.ISetPI(p0, isa.CmpLT, rD, 9)
				return p0
			})
			b.Gst(rTid, 64, rA)
		}},
		{"a loop counter to a loaded bound", false, func(b *kasm.Builder) {
			b.Gld(rE, rTid, 0)
			b.MovI(rD, 0)
			b.Loop(func() {
				b.IAddI(rD, rD, 1)
			}, func() isa.Pred {
				b.ISetP(p0, isa.CmpLT, rD, rE)
				return p0
			})
			b.Gst(rTid, 64, rD)
		}},
		// The counter is computed before the load in program order and from
		// it on the next iteration: only a pass to a fixed point sees it.
		{"a loop counter a later load feeds on the next iteration", false, func(b *kasm.Builder) {
			b.MovI(rA, 0)
			b.Loop(func() {
				b.IAddI(rD, rA, 1)
				b.Gld(rA, rD, 0)
			}, func() isa.Pred {
				b.ISetPI(p0, isa.CmpLT, rD, 9)
				return p0
			})
			b.Gst(rTid, 64, rA)
		}},
		{"a barrier", false, func(b *kasm.Builder) {
			b.Gld(rA, rTid, 0)
			b.Bar()
			b.Gst(rTid, 64, rA)
		}},
		{"shared memory", false, func(b *kasm.Builder) {
			b.Sst(rTid, 0, rTid)
			b.Sld(rA, rTid, 0)
			b.Gst(rTid, 64, rA)
		}},
	} {
		b := kasm.New("lanesafe")
		idx(b)
		tc.body(b)
		if got := LaneSafe(kasm.MustFinalize(b)); got != tc.safe {
			t.Errorf("%s: LaneSafe = %v, want %v", tc.name, got, tc.safe)
		}
	}
	if LaneSafe(nil) {
		t.Error("a launch without a program is lane-safe")
	}
}

// TestAttempt drives an attempt on one warp of a lane-safe kernel
// (out[i] = in[i] + 1, then in[i] = out[i] stored at the address the
// loaded value gives): the lanes Replay returns run alone, logging their
// stores and the loads inside [Lo, Hi); BlockDone sees them with the lanes'
// count; a kept attempt stays, and a rejected or failed one is undone —
// stores and counts — before the warp runs whole.
func TestAttempt(t *testing.T) {
	const n = 64
	b := kasm.New("inc")
	b.S2R(rTid, isa.SRTid)
	b.Gld(rA, rTid, 0)
	b.IAddI(rA, rA, 1)
	b.Gst(rTid, n, rA)
	b.Gld(rB, rTid, n) // loads what the lane stored
	b.Gst(rB, -1, rB)  // in[i], golden; out of range for a bad in[i]
	prog := kasm.MustFinalize(b)
	if !LaneSafe(prog) {
		t.Fatal("the kernel is not lane-safe")
	}
	input := func() []uint32 {
		g := make([]uint32, 2*n)
		for i := 0; i < n; i++ {
			g[i] = uint32(i)
		}
		return g
	}
	full := input()
	want, err := Run(&Launch{Prog: prog, Grid: 1, Block: n, Global: full})
	if err != nil {
		t.Fatal(err)
	}
	perLane := want.DynThreadInstrs / n

	const lanes = 1<<3 | 1<<17
	for _, tc := range []struct {
		name string
		keep bool
		bad  bool // lane 17 of warp 1 stores to an address out of range
	}{
		{"kept", true, false},
		{"rejected", false, false},
		{"failed", true, true},
	} {
		g := input()
		if tc.bad {
			g[WarpSize+17] = 1000
		}
		att := &Attempt{Lo: n, Hi: 2 * n}
		var seen []uint64
		var stores []Load
		var loads []uint32
		l := &Launch{Prog: prog, Grid: 1, Block: n, Global: g, Attempt: att}
		l.Replay = func(_, w int, _ *Result) uint32 {
			if w == 1 {
				return lanes
			}
			return ^uint32(0)
		}
		l.BlockDone = func(_, w int, res *Result) bool {
			seen = append(seen, res.DynThreadInstrs)
			if att.Lanes == 0 {
				return true
			}
			if w != 1 || att.Lanes != lanes {
				t.Fatalf("%s: attempt of warp %d lanes %b", tc.name, w, att.Lanes)
			}
			if errors.Is(att.Err, ErrBadAddress) != tc.bad {
				t.Fatalf("%s: attempt ended with %v", tc.name, att.Err)
			}
			stores, loads = slices.Clone(att.Stores), slices.Clone(att.Loads)
			return tc.keep
		}
		res, err := Run(l)
		if errors.Is(err, ErrBadAddress) != tc.bad {
			t.Fatalf("%s: run ended with %v", tc.name, err)
		}
		if tc.bad {
			var le *LaunchError
			if !errors.As(err, &le) || le.Warp != 1 || len(seen) != 2 {
				t.Fatalf("%s: failed at %v after BlockDone at %v", tc.name, err, seen)
			}
			continue
		}
		// Warp 0 whole, the attempt's two lanes, then — unless kept — warp 1
		// whole from warp 0's count.
		wantSeen := []uint64{WarpSize * perLane, (WarpSize + 2) * perLane}
		if !tc.keep {
			wantSeen = append(wantSeen, 2*WarpSize*perLane)
		}
		if !slices.Equal(seen, wantSeen) {
			t.Fatalf("%s: BlockDone at %v, want %v", tc.name, seen, wantSeen)
		}
		// The two lanes stored out[i] and in[i]; of their loads only out[i]
		// lies in [n, 2n).
		var wantStores []Load
		var wantLoads []uint32
		for m := uint32(lanes); m != 0; m &= m - 1 {
			i := uint32(WarpSize + bits.TrailingZeros32(m))
			wantStores = append(wantStores, Load{n + i, 0})
			wantLoads = append(wantLoads, n+i)
		}
		for m := uint32(lanes); m != 0; m &= m - 1 {
			i := uint32(WarpSize + bits.TrailingZeros32(m))
			wantStores = append(wantStores, Load{i, i})
		}
		if !slices.Equal(stores, wantStores) || !slices.Equal(loads, wantLoads) {
			t.Fatalf("%s: stores %v loads %v, want %v and %v", tc.name, stores, loads, wantStores, wantLoads)
		}
		if tc.keep {
			// Only warp 0 and the two lanes ran.
			wantG := input()
			ran := func(i int) { wantG[i], wantG[n+i] = full[i], full[n+i] }
			for i := 0; i < WarpSize; i++ {
				ran(i)
			}
			for m := uint32(lanes); m != 0; m &= m - 1 {
				ran(WarpSize + bits.TrailingZeros32(m))
			}
			if !slices.Equal(g, wantG) || res.DynThreadInstrs != wantSeen[1] {
				t.Fatalf("%s: arena or count %d after a kept attempt", tc.name, res.DynThreadInstrs)
			}
		} else if !slices.Equal(g, full) || res != want {
			t.Fatalf("%s: a rejected attempt left a trace: count %d, want %d", tc.name, res.DynThreadInstrs, want.DynThreadInstrs)
		}
	}
}

// TestMemTraceLanes: with Lanes set, every word a unit loads or stores
// carries the lanes that did, and Clear resets exactly those words.
func TestMemTraceLanes(t *testing.T) {
	const n = 64
	// Lane i stores out[i], loads in[i] and in[i^1], and loads out[i^1]
	// after its neighbour stored it.
	b := kasm.New("lanes")
	b.S2R(rTid, isa.SRTid)
	b.Gst(rTid, n, rTid)
	b.Gld(rA, rTid, 0)
	b.XorI(rAddr, rTid, 1)
	b.Gld(rB, rAddr, 0)
	b.Gld(rC, rAddr, n)
	prog := kasm.MustFinalize(b)
	words := (2*n + 63) / 64
	mt := &MemTrace{Writes: make([]uint64, words), Loaded: make([]uint64, words), Lanes: make([]uint32, 2*n)}
	if _, err := Run(&Launch{Prog: prog, Grid: 1, Block: WarpSize, Global: make([]uint32, 2*n), Mem: mt}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*n; i++ {
		var want uint32
		if lane := i % n; lane < WarpSize {
			want = 1<<lane | 1<<(lane^1)
		}
		if mt.Lanes[i] != want {
			t.Fatalf("Lanes[%d] = %b, want %b", i, mt.Lanes[i], want)
		}
	}
	mt.Clear()
	if slices.ContainsFunc(mt.Lanes, func(m uint32) bool { return m != 0 }) {
		t.Fatalf("Clear left lanes %b", mt.Lanes)
	}
}
