package rtl

import (
	"reflect"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
	"gpufi/internal/stats"
)

// snapshotProg builds a kernel long enough to exercise every pipeline
// phase across several warps, including divergence (so mid-pipeline
// snapshots cover the SIMT stack) and an SFU instruction (so they cover
// the SFU controller mid-sequence).
func snapshotProg(t *testing.T) *kasm.Program {
	t.Helper()
	b := kasm.New("snapshot")
	b.S2R(rTid, isa.SRTid)
	b.Gld(rA, rTid, 0)
	b.Gld(rB, rTid, 64)
	b.Emit(isa.Instr{Op: isa.OpFMUL, Guard: isa.PredTrue, Dst: rTmp, SrcA: rA, SrcB: rB, SrcC: isa.RZ})
	b.Emit(isa.Instr{Op: isa.OpFSIN, Guard: isa.PredTrue, Dst: rC, SrcA: rA, SrcB: isa.RZ, SrcC: isa.RZ})
	b.ISetPI(isa.P(0), isa.CmpLT, rTid, 32)
	b.IfElse(isa.P(0),
		func() {
			b.Emit(isa.Instr{Op: isa.OpFADD, Guard: isa.PredTrue, Dst: rTmp, SrcA: rTmp, SrcB: rC, SrcC: isa.RZ})
		},
		func() {
			b.Emit(isa.Instr{Op: isa.OpIADD, Guard: isa.PredTrue, Dst: rTmp, SrcA: rTmp, SrcB: rTid, SrcC: isa.RZ})
		},
	)
	b.Gst(rTid, 128, rTmp)
	b.Gst(rTid, 192, rC)
	p, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func snapshotInputs() []uint32 {
	g := make([]uint32, 256)
	for i := 0; i < 64; i++ {
		g[i] = f32(0.02 + float32(i)*0.02)
		g[64+i] = f32(1.5 - float32(i)*0.01)
	}
	return g
}

// TestSnapshotRestoreRoundTrip: restoring a mid-pipeline snapshot into a
// different machine and re-capturing it must reproduce the snapshot
// exactly, for checkpoints spread across the whole run.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	prog := snapshotProg(t)
	m := New()
	var snaps []*Snapshot
	if err := m.RunCheckpointed(prog, 1, 64, snapshotInputs(), 0, testMaxCycles, 7, func(s *Snapshot) {
		snaps = append(snaps, s)
	}); err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 10 {
		t.Fatalf("only %d snapshots captured", len(snaps))
	}
	other := New()
	// Dirty the target machine first so the round-trip proves Restore
	// overwrites everything, not just what the snapshot run touched.
	dirty := snapshotInputs()
	if err := other.Run(prog, 1, 64, dirty, 0, testMaxCycles); err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps {
		other.Restore(s)
		got := other.Snapshot()
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("snapshot %d (cycle %d): round-trip mismatch", i, s.Cycle())
		}
	}
}

// RunFrom restores a snapshot and resumes execution without pruning:
// RunFromPruned's plain counterpart, the reference the tests resume
// golden checkpoints with.
func (m *Machine) RunFrom(s *Snapshot, maxCycles uint64) error {
	m.Restore(s)
	m.maxCycles = maxCycles
	return m.runLoop(0, nil, nil)
}

// TestRunFromFaultFree: resuming any golden checkpoint without a fault
// must finish with the same cycle count and memory image as the
// uninterrupted run.
func TestRunFromFaultFree(t *testing.T) {
	prog := snapshotProg(t)
	golden := snapshotInputs()
	m := New()
	if err := m.Run(prog, 1, 64, golden, 0, testMaxCycles); err != nil {
		t.Fatal(err)
	}
	goldenCycles := m.Cycles()

	var snaps []*Snapshot
	if err := m.RunCheckpointed(prog, 1, 64, snapshotInputs(), 0, testMaxCycles, 11, func(s *Snapshot) {
		snaps = append(snaps, s)
	}); err != nil {
		t.Fatal(err)
	}
	worker := New()
	for i, s := range snaps {
		if err := worker.RunFrom(s, testMaxCycles); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if worker.Cycles() != goldenCycles {
			t.Fatalf("snapshot %d: resumed run took %d cycles, full run %d", i, worker.Cycles(), goldenCycles)
		}
		out := worker.Global()
		for w := range out {
			if out[w] != golden[w] {
				t.Fatalf("snapshot %d: word %d = %#x, golden %#x", i, w, out[w], golden[w])
			}
		}
	}
}

// TestRunFromFaultBitIdentical: for faults across modules and cycles, a
// checkpointed resume must end in exactly the state a full faulty replay
// reaches — same error, same cycle count, same memory image.
func TestRunFromFaultBitIdentical(t *testing.T) {
	prog := snapshotProg(t)
	m := New()
	golden := snapshotInputs()
	if err := m.Run(prog, 1, 64, golden, 0, testMaxCycles); err != nil {
		t.Fatal(err)
	}
	goldenCycles := m.Cycles()

	var snaps []*Snapshot
	if err := m.RunCheckpointed(prog, 1, 64, snapshotInputs(), 0, testMaxCycles, 13, func(s *Snapshot) {
		snaps = append(snaps, s)
	}); err != nil {
		t.Fatal(err)
	}
	latest := func(cycle uint64) *Snapshot {
		var best *Snapshot
		for _, s := range snaps {
			if s.Cycle() <= cycle {
				best = s
			}
		}
		return best
	}

	r := stats.NewRNG(4242)
	full, ff := New(), New()
	budget := goldenCycles*10 + 1000
	for trial := 0; trial < 200; trial++ {
		mod := faults.AllModules()[r.Intn(len(faults.AllModules()))]
		f := Fault{
			Module: mod,
			Bit:    r.Intn(ModuleBits(mod)),
			Cycle:  uint64(r.Intn(int(goldenCycles))),
		}

		gFull := snapshotInputs()
		full.Inject(f)
		errFull := full.Run(prog, 1, 64, gFull, 0, budget)

		snap := latest(f.Cycle)
		if snap == nil {
			t.Fatalf("no snapshot at or before cycle %d", f.Cycle)
		}
		ff.Inject(f)
		errFF := ff.RunFrom(snap, budget)

		if (errFull == nil) != (errFF == nil) || (errFull != nil && errFull.Error() != errFF.Error()) {
			t.Fatalf("fault %+v: full err %v, fast-forward err %v", f, errFull, errFF)
		}
		if full.Cycles() != ff.Cycles() {
			t.Fatalf("fault %+v: full %d cycles, fast-forward %d", f, full.Cycles(), ff.Cycles())
		}
		gFF := ff.Global()
		for w := range gFull {
			if gFull[w] != gFF[w] {
				t.Fatalf("fault %+v: word %d full=%#x fast-forward=%#x", f, w, gFull[w], gFF[w])
			}
		}
	}
}

// TestRunFromPrunedBitIdentical: golden-reconvergence pruning may stop a
// faulty run early ONLY when the remaining tail provably replays the
// golden run — a pruned result must mean the full replay ends with the
// golden memory image, the golden cycle count and no error.
func TestRunFromPrunedBitIdentical(t *testing.T) {
	prog := snapshotProg(t)
	m := New()
	golden := snapshotInputs()
	if err := m.Run(prog, 1, 64, golden, 0, testMaxCycles); err != nil {
		t.Fatal(err)
	}
	goldenCycles := m.Cycles()

	const every = 13
	var snaps []*Snapshot
	if err := m.RunCheckpointed(prog, 1, 64, snapshotInputs(), 0, testMaxCycles, every, func(s *Snapshot) {
		snaps = append(snaps, s)
	}); err != nil {
		t.Fatal(err)
	}
	at := func(cycle uint64) *Snapshot {
		for _, s := range snaps {
			if s.Cycle() == cycle {
				return s
			}
		}
		return nil
	}
	latest := func(cycle uint64) *Snapshot {
		var best *Snapshot
		for _, s := range snaps {
			if s.Cycle() <= cycle {
				best = s
			}
		}
		return best
	}

	r := stats.NewRNG(1717)
	full, ff := New(), New()
	budget := goldenCycles*10 + 1000
	prunes := 0
	for trial := 0; trial < 300; trial++ {
		mod := faults.AllModules()[r.Intn(len(faults.AllModules()))]
		f := Fault{
			Module: mod,
			Bit:    r.Intn(ModuleBits(mod)),
			Cycle:  uint64(r.Intn(int(goldenCycles))),
		}

		gFull := snapshotInputs()
		full.Inject(f)
		errFull := full.Run(prog, 1, 64, gFull, 0, budget)

		ff.Inject(f)
		pruned, errFF := ff.RunFromPruned(latest(f.Cycle), budget, every, at)
		if !pruned {
			// Without a prune the resumed run must be the plain RunFrom
			// result; the non-pruned equivalence is covered above.
			if (errFull == nil) != (errFF == nil) {
				t.Fatalf("fault %+v: full err %v, fast-forward err %v", f, errFull, errFF)
			}
			continue
		}
		prunes++
		if errFF != nil {
			t.Fatalf("fault %+v: pruned run returned error %v", f, errFF)
		}
		if errFull != nil {
			t.Fatalf("fault %+v: pruned, but full replay errored: %v", f, errFull)
		}
		if full.Cycles() != goldenCycles {
			t.Fatalf("fault %+v: pruned, but full replay took %d cycles (golden %d)", f, full.Cycles(), goldenCycles)
		}
		for w := range gFull {
			if gFull[w] != golden[w] {
				t.Fatalf("fault %+v: pruned, but full replay corrupted word %d (%#x != %#x)",
					f, w, gFull[w], golden[w])
			}
		}
	}
	if prunes == 0 {
		t.Fatal("no fault pruned; the reconvergence path was not exercised")
	}
}
