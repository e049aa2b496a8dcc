package rtl

import (
	"reflect"
	"slices"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
	"gpufi/internal/mxm"
	"gpufi/internal/stats"
)

// retargetSite steps a golden run of prog to the first cycle boundary at
// which a register writeback of a non-zero value is about to commit, and
// returns that cycle, the warp and the destination row.
func retargetSite(t *testing.T, prog *kasm.Program, block int, global []uint32) (cycle uint64, w, dst int) {
	t.Helper()
	m := New()
	if err := m.launch(prog, 1, block, append([]uint32(nil), global...), 0, testMaxCycles); err != nil {
		t.Fatal(err)
	}
	pf, p := &m.pf, m.Pipe
	for !m.blockDone && m.err == nil {
		if m.Sched.Get(m.sf.phase) == phWriteback && p.Get(pf.wbValid) == 1 && p.Get(pf.wbIsPred) == 0 {
			mask := uint32(p.Get(pf.wbMask))
			for lane := 0; lane < WarpSize; lane++ {
				if mask>>uint(lane)&1 == 1 && p.Get(pf.wbRes[lane]) != 0 {
					return m.cycle, int(p.Get(pf.wbWarp)), int(p.Get(pf.wbDst)) % isa.NumRegs
				}
			}
		}
		m.advance()
	}
	t.Fatal("no register writeback of a non-zero value")
	return
}

// TestRetargetedWriteRow flips the top bit of the writeback destination
// (wb_dst) as a non-zero result commits, so the lanes write row dst+32,
// which the program never names and the golden run never writes. The
// machine's row mark must follow the write: the faulty state matches no
// golden checkpoint while that row is non-zero, Restore and CopyFrom of
// golden state zero it, and the faulty run ends exactly as the same
// fault on a fresh machine.
func TestRetargetedWriteRow(t *testing.T) {
	prog := snapshotProg(t)
	const block, every = 64, 7
	c, w, dst := retargetSite(t, prog, block, snapshotInputs())
	row := dst + 32
	if dst >= 32 || row == isa.RZ {
		t.Fatalf("writeback to row %d cannot be retargeted to an unnamed row", dst)
	}
	f := Fault{Module: faults.ModPipe, Bit: New().Pipe.Lay.MustFieldOffset("wb_dst") + 5, Cycle: c}

	g := New()
	var snaps []*Snapshot
	if err := g.RunCheckpointed(prog, 1, block, snapshotInputs(), 0, testMaxCycles, every, func(s *Snapshot) {
		snaps = append(snaps, s)
	}); err != nil {
		t.Fatal(err)
	}
	goldenCycles := g.Cycles()
	for _, s := range snaps {
		if s.Rows() > row {
			t.Fatalf("golden checkpoint at cycle %d holds %d rows; row %d is not unnamed", s.Cycle(), s.Rows(), row)
		}
	}
	at := func(cycle uint64) *Snapshot {
		if cycle%every != 0 || cycle/every >= uint64(len(snaps)) {
			return nil
		}
		return snaps[cycle/every]
	}

	// Step the faulty run to the first checkpoint boundary after the
	// retargeted write.
	fm := New()
	fm.Inject(f)
	if err := fm.launch(prog, 1, block, snapshotInputs(), 0, testMaxCycles); err != nil {
		t.Fatal(err)
	}
	for fm.cycle <= c || fm.cycle%every != 0 {
		fm.advance()
		if fm.blockDone || fm.err != nil {
			t.Fatalf("faulty run ended at cycle %d (%v) before a checkpoint boundary", fm.cycle, fm.err)
		}
	}
	zero := [WarpSize]uint32{}
	if fm.page(w)[row] == zero || fm.hiReg <= row {
		t.Fatalf("row %d of warp %d not written (mark %d)", row, w, fm.hiReg)
	}
	gs := at(fm.cycle)
	if fm.matches(gs) {
		t.Fatal("faulty state with a non-zero unnamed row matches the golden checkpoint")
	}

	// The row alone decides the match: golden state plus that row does
	// not match, and with the row zeroed again (mark still raised) it does.
	x := New()
	x.Restore(gs)
	if !x.matches(gs) {
		t.Fatal("restored golden state does not match its checkpoint")
	}
	x.wpage(w)[row] = fm.page(w)[row]
	x.markReg(row)
	if x.matches(gs) {
		t.Fatal("golden state plus a non-zero row past the checkpoint's mark matches it")
	}
	x.wpage(w)[row] = zero
	if !x.matches(gs) {
		t.Fatal("zero rows between the two marks break the match")
	}

	// Restore and CopyFrom of golden state clear the row.
	fc := New()
	fc.CopyFrom(fm)
	fm.Restore(gs)
	if fm.page(w)[row] != zero || !reflect.DeepEqual(fm.Snapshot(), gs) {
		t.Fatal("Restore of golden state left the retargeted row or a different snapshot")
	}
	if fc.page(w)[row] == zero {
		t.Fatal("CopyFrom did not carry the retargeted row")
	}
	fc.CopyFrom(fm)
	if fc.page(w)[row] != zero || !reflect.DeepEqual(fc.Snapshot(), gs) {
		t.Fatal("CopyFrom of golden state left the retargeted row or a different snapshot")
	}

	// The same fault, fast-forwarded on the reused machine with pruning,
	// ends as on a fresh machine. The unnamed row stays non-zero to the
	// end, so no golden checkpoint may prune it.
	budget := goldenCycles*10 + 1000
	fresh := New()
	fresh.Inject(f)
	gFresh := snapshotInputs()
	errFresh := fresh.Run(prog, 1, block, gFresh, 0, budget)
	fc.Inject(f)
	pruned, err := fc.RunFromPruned(snaps[c/every], budget, every, at)
	if pruned {
		t.Fatal("a run with a non-zero unnamed row was pruned at golden reconvergence")
	}
	if (err == nil) != (errFresh == nil) || err != nil && err.Error() != errFresh.Error() {
		t.Fatalf("reused machine: %v, fresh machine: %v", err, errFresh)
	}
	if fc.Cycles() != fresh.Cycles() || !slices.Equal(fc.Global(), gFresh) {
		t.Fatalf("reused machine ran %d cycles, fresh %d, or their memory differs", fc.Cycles(), fresh.Cycles())
	}
}

// microFADD is the FADD micro-benchmark kernel (rtlfi.BuildMicro): two
// loads, the add, one store.
func microFADD(t *testing.T) *kasm.Program {
	t.Helper()
	b := kasm.New("micro_FADD")
	b.S2R(rTid, isa.SRTid)
	b.Gld(rA, rTid, 0)
	b.Gld(rB, rTid, 64)
	b.Emit(isa.Instr{Op: isa.OpFADD, Guard: isa.PredTrue, Dst: rTmp, SrcA: rA, SrcB: rB, SrcC: isa.RZ})
	b.Gst(rTid, 192, rTmp)
	p, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// dirtyTMXM runs a faulty t-MxM on m with a liveness trace attached,
// leaving m with t-MxM's 18 written rows and a tracer to detach.
func dirtyTMXM(t *testing.T, m *Machine) {
	t.Helper()
	prog, err := mxm.Build(mxm.Tile)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mxm.TileInputs(mxm.TileRandom, 3)
	m.TraceLiveness(NewLiveness(faults.ModPipe))
	r := stats.NewRNG(11)
	m.Inject(Fault{Module: faults.ModPipe, Bit: r.Intn(FFCountPipe), Cycle: 500})
	_ = m.Run(prog, 1, mxm.BlockThreads, mxm.Pack(a, b, mxm.Tile), mxm.SharedWords, 200_000)
	if m.hiReg < 18 {
		t.Fatalf("faulty t-MxM left row mark %d, want at least 18", m.hiReg)
	}
}

// TestPooledMachineRunsCold: a machine returned to the pool after a
// faulty t-MxM with liveness attached comes back with its tracers
// detached, and a golden FADD micro-benchmark on it records checkpoints
// that match a cold machine's one for one.
func TestPooledMachineRunsCold(t *testing.T) {
	dirtied := map[*Machine]bool{}
	m := Pooled()
	// The pool may hand out another machine (the race detector drops
	// some puts on purpose); dirty until it returns a dirtied one.
	for tries := 0; !dirtied[m]; tries++ {
		if tries == 20 {
			t.Fatal("the pool never handed back a returned machine")
		}
		dirtyTMXM(t, m)
		dirtied[m] = true
		m.Release()
		m = Pooled()
	}
	defer m.Release()
	if m.live != nil || m.vec != nil || m.fault != nil {
		t.Fatal("pooled machine kept a tracer or a pending fault")
	}
	for _, st := range m.moduleStates() {
		if st.live != nil || st.vec != nil {
			t.Fatalf("pooled machine's %s state kept a tracer", st.Lay.Name)
		}
	}

	prog := microFADD(t)
	input := func() []uint32 {
		g := make([]uint32, 320)
		for i := 0; i < 128; i++ {
			g[i] = f32(1 + float32(i)*0.125)
		}
		return g
	}
	record := func(x *Machine) ([]*Snapshot, []uint32) {
		var snaps []*Snapshot
		g := input()
		if err := x.RunCheckpointed(prog, 1, 64, g, 0, testMaxCycles, 5, func(s *Snapshot) {
			snaps = append(snaps, s)
		}); err != nil {
			t.Fatal(err)
		}
		return snaps, g
	}
	cold, coldOut := record(New())
	warm, warmOut := record(m)
	if len(warm) != len(cold) || !slices.Equal(warmOut, coldOut) {
		t.Fatalf("pooled machine: %d checkpoints, cold %d, or different outputs", len(warm), len(cold))
	}
	for i := range cold {
		if cold[i].Rows() > 7 {
			t.Errorf("FADD checkpoint %d holds %d rows, want at most 7", i, cold[i].Rows())
		}
		m.Restore(warm[i])
		if !m.matches(cold[i]) || !reflect.DeepEqual(warm[i], cold[i]) {
			t.Fatalf("checkpoint %d (cycle %d): pooled machine's does not match the cold machine's", i, cold[i].Cycle())
		}
	}
}

// rowMarkHolds reports whether every register row at or above m's row
// mark is zero in every warp.
func rowMarkHolds(m *Machine) bool {
	for w := range m.regs {
		for r := m.hiReg; r < isa.NumRegs; r++ {
			if m.page(w)[r] != ([WarpSize]uint32{}) {
				return false
			}
		}
	}
	return true
}

// TestMarchKeepsRowMark marches a top-bit wb_dst flip at every cycle of
// a kernel whose writebacks include an 8-lane one, so some lanes write
// an unnamed row, park with it as a delta (a full warp's two rows of
// deltas would not fit vecParkMax) and are materialised again.
// Every march machine must keep its row mark above the rows it holds,
// and every lane must end as the same fault run alone on a fresh machine.
func TestMarchKeepsRowMark(t *testing.T) {
	b := kasm.New("rowmark")
	b.S2R(rTid, isa.SRTid)
	b.Gld(rA, rTid, 0)
	b.ISetPI(isa.P(0), isa.CmpLT, rTid, 8)
	b.IfElse(isa.P(0),
		func() {
			b.Emit(isa.Instr{Op: isa.OpFADD, Guard: isa.PredTrue, Dst: rTmp, SrcA: rA, SrcB: rA, SrcC: isa.RZ})
		},
		func() {
			b.Emit(isa.Instr{Op: isa.OpIADD, Guard: isa.PredTrue, Dst: rTmp, SrcA: rA, SrcB: rTid, SrcC: isa.RZ})
		},
	)
	// Independent work gives a lane time to park before rTmp is read.
	for i := 0; i < 12; i++ {
		b.Emit(isa.Instr{Op: isa.OpIADD, Guard: isa.PredTrue, Dst: rB, SrcA: rB, SrcB: rTid, SrcC: isa.RZ})
	}
	b.Emit(isa.Instr{Op: isa.OpFMUL, Guard: isa.PredTrue, Dst: rC, SrcA: rTmp, SrcB: rA, SrcC: isa.RZ})
	b.Gst(rTid, 64, rC)
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	input := func() []uint32 {
		g := make([]uint32, 128)
		for i := 0; i < 64; i++ {
			g[i] = f32(0.5 + float32(i)*0.25)
		}
		return g
	}
	g, golden := New(), input()
	if err := g.Run(prog, 1, 64, golden, 0, testMaxCycles); err != nil {
		t.Fatal(err)
	}
	budget := g.Cycles()*10 + 1000
	bit := g.Pipe.Lay.MustFieldOffset("wb_dst") + 5
	var fs []Fault
	for c := uint64(0); c < g.Cycles(); c++ {
		fs = append(fs, Fault{Module: faults.ModPipe, Bit: bit, Cycle: c})
	}
	eng := NewVecEngine()
	defer eng.Close()
	ref := New()
	for off := 0; off < len(fs); off += VecMaxLanes {
		chunk := fs[off:min(off+VecMaxLanes, len(fs))]
		outs, err := eng.March(prog, 64, input(), 0, chunk, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rowMarkHolds(eng.golden) {
			t.Fatal("golden march machine holds a row at or above its mark")
		}
		for _, p := range eng.pool {
			if !rowMarkHolds(p.m) {
				t.Fatalf("a lane machine of the march from cycle %d holds a row at or above its mark", chunk[0].Cycle)
			}
		}
		for i, f := range chunk {
			want := input()
			ref.Inject(f)
			errRef := ref.Run(prog, 1, 64, want, 0, budget)
			o := outs[i]
			if o.GoldenGlobal {
				o.Global = golden
			}
			if (o.Err == nil) != (errRef == nil) || o.End != ref.Cycles() ||
				o.Err == nil && !slices.Equal(o.Global, want) {
				t.Fatalf("fault %+v: march err %v end %d, scalar err %v end %d", f, o.Err, o.End, errRef, ref.Cycles())
			}
		}
	}
}
