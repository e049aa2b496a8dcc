package emu

import (
	"testing"

	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// sharedRevProg exercises every piece of snapshot state: divergence (an If
// on the thread id), shared memory with a barrier (block-level reversal)
// and global loads/stores. Layout [in(n) | out(n)], out[gid] =
// 2*in[block-reversed gid] + (tid < ntid/2 ? 1 : 0).
func sharedRevProg(t *testing.T, block int32) *kasm.Program {
	t.Helper()
	b := kasm.New("sharedrev")
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNtid, isa.SRNtid)
	b.IMad(rAddr, rCta, rNtid, rTid) // global thread id
	b.Gld(rA, rAddr, 0)
	b.Sst(rTid, 0, rA)
	b.Bar()
	b.IAddI(rTmp, rNtid, -1)
	b.MovI(rB, -1)
	b.IMad(rTmp, rTid, rB, rTmp) // ntid-1-tid
	b.Sld(rC, rTmp, 0)
	b.IAdd(rC, rC, rC)
	b.ISetPI(isa.P(0), isa.CmpLT, rTid, block/2)
	b.If(isa.P(0), func() {
		b.IAddI(rC, rC, 1)
	})
	b.S2R(rB, isa.SRNctaid)
	b.IMul(rB, rB, rNtid) // total threads = n
	b.IAdd(rAddr, rAddr, rB)
	b.Gst(rAddr, 0, rC) // out[gid]
	p, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sharedRevLaunch(prog *kasm.Program, g []uint32, hooks Hooks) *Launch {
	return &Launch{Prog: prog, Grid: 2, Block: 64, Global: g, SharedWords: 64, Hooks: hooks}
}

func sharedRevInput(n int) []uint32 {
	g := make([]uint32, 2*n)
	for i := 0; i < n; i++ {
		g[i] = uint32(i * 3)
	}
	return g
}

// TestSnapshotResumeBitIdentical resumes from every checkpoint of a
// divergence+barrier+shared-memory kernel and demands the exact final
// memory image and Result counters of an uninterrupted run.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	const n = 128
	prog := sharedRevProg(t, 64)

	gWant := sharedRevInput(n)
	want, err := Run(sharedRevLaunch(prog, gWant, Hooks{}))
	if err != nil {
		t.Fatal(err)
	}

	var snaps []*Snapshot
	gRec := sharedRevInput(n)
	got, err := RunCheckpointed(sharedRevLaunch(prog, gRec, Hooks{}), 7, 97, func(s *Snapshot) {
		snaps = append(snaps, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("checkpointed Result = %+v, want %+v", got, want)
	}
	if !equalWords(gRec, gWant) {
		t.Fatal("checkpointed run diverged from plain run")
	}
	if len(snaps) < 5 {
		t.Fatalf("only %d snapshots captured", len(snaps))
	}

	sawSecondBlock := false
	for i, s := range snaps {
		if s.block == 1 {
			sawSecondBlock = true
		}
		g := make([]uint32, 2*n)
		res, err := Resume(sharedRevLaunch(prog, g, Hooks{}), s)
		if err != nil {
			t.Fatalf("resume from snapshot %d: %v", i, err)
		}
		if res != want {
			t.Fatalf("snapshot %d: resumed Result = %+v, want %+v", i, res, want)
		}
		if !equalWords(g, gWant) {
			t.Fatalf("snapshot %d: resumed memory image diverged", i)
		}
	}
	if !sawSecondBlock {
		t.Fatal("no snapshot landed in the second block; widen the test")
	}
}

// TestCountdownArming checks hook-free countdown execution: hooks stay
// inert before ArmAfter, OnArm hands over the prefix counters, and the
// armed tail observes every remaining instruction.
func TestCountdownArming(t *testing.T) {
	const n = 128
	prog := sharedRevProg(t, 64)

	gWant := sharedRevInput(n)
	want, err := Run(sharedRevLaunch(prog, gWant, Hooks{}))
	if err != nil {
		t.Fatal(err)
	}

	for _, armAfter := range []uint64{0, 1, 333, want.DynThreadInstrs / 2, want.DynThreadInstrs} {
		var armedAt uint64
		armCalls := 0
		var hookInstrs uint64
		g := sharedRevInput(n)
		res, err := Run(sharedRevLaunch(prog, g, Hooks{
			Post:     func(ev *Event) { hookInstrs += uint64(ev.ActiveCount()) },
			ArmAfter: armAfter,
			OnArm: func(r *Result) {
				armCalls++
				armedAt = r.DynThreadInstrs
			},
		}))
		if err != nil {
			t.Fatal(err)
		}
		if res != want {
			t.Fatalf("armAfter=%d: Result = %+v, want %+v", armAfter, res, want)
		}
		if !equalWords(g, gWant) {
			t.Fatalf("armAfter=%d: output diverged", armAfter)
		}
		if armCalls != 1 {
			t.Fatalf("armAfter=%d: OnArm called %d times", armAfter, armCalls)
		}
		// The hook must be live before the counter crosses ArmAfter, and
		// the hooked tail plus the unhooked prefix must cover the run.
		if armedAt+WarpSize <= armAfter {
			t.Fatalf("armAfter=%d: armed too late, at %d", armAfter, armedAt)
		}
		if armedAt+hookInstrs != want.DynThreadInstrs {
			t.Fatalf("armAfter=%d: prefix %d + hooked %d != total %d",
				armAfter, armedAt, hookInstrs, want.DynThreadInstrs)
		}
	}
}

// TestCountdownOnResume arms a countdown on a resumed launch and checks
// the combination still reproduces the uninstrumented run.
func TestCountdownOnResume(t *testing.T) {
	const n = 128
	prog := sharedRevProg(t, 64)

	gWant := sharedRevInput(n)
	want, err := Run(sharedRevLaunch(prog, gWant, Hooks{}))
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*Snapshot
	gRec := sharedRevInput(n)
	if _, err := RunCheckpointed(sharedRevLaunch(prog, gRec, Hooks{}), 100, 100, func(s *Snapshot) {
		snaps = append(snaps, s)
	}); err != nil {
		t.Fatal(err)
	}
	s := snaps[len(snaps)/2]
	armAfter := s.Res().DynThreadInstrs + 50
	var hookInstrs, armedAt uint64
	g := make([]uint32, 2*n)
	res, err := Resume(sharedRevLaunch(prog, g, Hooks{
		Post:     func(ev *Event) { hookInstrs += uint64(ev.ActiveCount()) },
		ArmAfter: armAfter,
		OnArm:    func(r *Result) { armedAt = r.DynThreadInstrs },
	}), s)
	if err != nil {
		t.Fatal(err)
	}
	if res != want || !equalWords(g, gWant) {
		t.Fatalf("countdown resume diverged: Result = %+v, want %+v", res, want)
	}
	if armedAt < s.Res().DynThreadInstrs || armedAt+WarpSize <= armAfter {
		t.Fatalf("armed at %d (snapshot %d, armAfter %d)", armedAt, s.Res().DynThreadInstrs, armAfter)
	}
	if armedAt+hookInstrs != want.DynThreadInstrs {
		t.Fatalf("prefix %d + hooked %d != total %d", armedAt, hookInstrs, want.DynThreadInstrs)
	}
}

func equalWords(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBlockDone: the callback sees every completed block in order with the
// launch's running counters, on both tiers and after a Resume (the resumed
// block first), and returning true ends the launch there without error,
// leaving later blocks' output unwritten.
func TestBlockDone(t *testing.T) {
	const grid, block = 4, 64
	const n = grid * block
	prog := sharedRevProg(t, block)
	launch := func(g []uint32, noFast bool, done func(int, *Result) bool) *Launch {
		return &Launch{Prog: prog, Grid: grid, Block: block, Global: g, SharedWords: block,
			NoFastPath: noFast, BlockDone: done}
	}
	gWant := sharedRevInput(n)
	var ends []uint64 // counters after each block of the full run
	want, err := Run(launch(gWant, false, func(b int, r *Result) bool {
		if b != len(ends) {
			t.Fatalf("BlockDone for block %d after %d blocks", b, len(ends))
		}
		ends = append(ends, r.DynThreadInstrs)
		return false
	}))
	if err != nil || len(ends) != grid || ends[grid-1] != want.DynThreadInstrs {
		t.Fatalf("full run: %v, block ends %v, total %d", err, ends, want.DynThreadInstrs)
	}
	outOf := func(g []uint32, b int) []uint32 { return g[n+b*block : n+(b+1)*block] }

	for _, noFast := range []bool{false, true} {
		for stop := 0; stop < grid; stop++ {
			g := sharedRevInput(n)
			res, err := Run(launch(g, noFast, func(b int, _ *Result) bool { return b == stop }))
			if err != nil || res.DynThreadInstrs != ends[stop] {
				t.Fatalf("noFast=%v stop=%d: %v after %d instructions, want %d", noFast, stop, err, res.DynThreadInstrs, ends[stop])
			}
			for b := 0; b < grid; b++ {
				ran := equalWords(outOf(g, b), outOf(gWant, b))
				if ran != (b <= stop) {
					t.Fatalf("noFast=%v stop=%d: block %d output written = %v", noFast, stop, b, ran)
				}
			}
		}
	}

	var snaps []*Snapshot
	if _, err := RunCheckpointed(launch(sharedRevInput(n), false, nil), 100, 300, func(s *Snapshot) {
		snaps = append(snaps, s)
	}); err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps {
		var seen []int
		res, err := Resume(launch(make([]uint32, 2*n), false, func(b int, r *Result) bool {
			if r.DynThreadInstrs != ends[b] {
				t.Fatalf("snapshot %d: block %d ended at %d, want %d", i, b, r.DynThreadInstrs, ends[b])
			}
			seen = append(seen, b)
			return b == s.block
		}), s)
		if err != nil || len(seen) != 1 || seen[0] != s.block || res.DynThreadInstrs != ends[s.block] {
			t.Fatalf("snapshot %d in block %d: %v, BlockDone saw %v", i, s.block, err, seen)
		}
	}
}

// TestMemTraceStores: Touched lists exactly the Writes words stores marked,
// ClearWrites resets them, and a nil Reads leaves loads untraced.
func TestMemTraceStores(t *testing.T) {
	const n = 128
	prog := sharedRevProg(t, 64)
	for _, noFast := range []bool{false, true} {
		mt := &MemTrace{Writes: make([]uint64, (2*n+63)/64)}
		l := sharedRevLaunch(prog, sharedRevInput(n), Hooks{})
		l.Mem, l.NoFastPath = mt, noFast
		if _, err := Run(l); err != nil {
			t.Fatal(err)
		}
		// The kernel stores out = words n..2n-1, each once.
		for k, m := range mt.Writes {
			if want := uint64(0); k >= n/64 {
				if want = ^want; m != want {
					t.Fatalf("noFast=%v: Writes[%d] = %x", noFast, k, m)
				}
			} else if m != 0 {
				t.Fatalf("noFast=%v: Writes[%d] = %x, the kernel stores nothing there", noFast, k, m)
			}
		}
		if len(mt.Touched) != n/64 || mt.Touched[0] != n/64 || mt.Touched[1] != n/64+1 {
			t.Fatalf("noFast=%v: Touched = %v", noFast, mt.Touched)
		}
		mt.ClearWrites()
		if len(mt.Touched) != 0 || mt.Writes[n/64] != 0 || mt.Writes[n/64+1] != 0 {
			t.Fatalf("noFast=%v: ClearWrites left %v, %x", noFast, mt.Touched, mt.Writes)
		}
	}
}
