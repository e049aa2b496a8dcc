package emu

import (
	"errors"
	"slices"
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

	// A snapshot holds no global memory: keep the image at each capture.
	var snaps []*Snapshot
	var images [][]uint32
	gRec := sharedRevInput(n)
	got, err := RunCheckpointed(sharedRevLaunch(prog, gRec, Hooks{}), 7, 97, func(s *Snapshot) {
		snaps = append(snaps, s)
		images = append(images, slices.Clone(gRec))
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
		g := slices.Clone(images[i])
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
	var images [][]uint32
	gRec := sharedRevInput(n)
	if _, err := RunCheckpointed(sharedRevLaunch(prog, gRec, Hooks{}), 100, 100, func(s *Snapshot) {
		snaps = append(snaps, s)
		images = append(images, slices.Clone(gRec))
	}); err != nil {
		t.Fatal(err)
	}
	s := snaps[len(snaps)/2]
	armAfter := s.Res().DynThreadInstrs + 50
	var hookInstrs, armedAt uint64
	g := slices.Clone(images[len(snaps)/2])
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

// warpMapProg is sharedRevProg without the shared memory and barrier, so
// its launches are barrier-free: out[gid] = 2*in[gid] + (lane < 16 ? 1 : 0).
func warpMapProg() *kasm.Program {
	b := kasm.New("warpmap")
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNtid, isa.SRNtid)
	b.IMad(rAddr, rCta, rNtid, rTid)
	b.Gld(rC, rAddr, 0)
	b.IAdd(rC, rC, rC)
	b.S2R(rTmp, isa.SRLane)
	b.ISetPI(isa.P(0), isa.CmpLT, rTmp, 16)
	b.If(isa.P(0), func() {
		b.IAddI(rC, rC, 1)
	})
	b.S2R(rB, isa.SRNctaid)
	b.IMul(rB, rB, rNtid)
	b.IAdd(rAddr, rAddr, rB)
	b.Gst(rAddr, 0, rC)
	return kasm.MustFinalize(b)
}

// TestBlockHooks: BlockDone sees every unit that runs — every block of a
// barrier kernel, every warp of a barrier-free one — in order, with the
// launch's running counters, and after a Resume (the resumed unit first).
// Replay is offered every unit before it runs — after a Resume, the units
// after the resumed one — and a unit it takes does not run: the count the
// caller charges reaches the Result, the watchdog and a pending ArmAfter
// countdown as the unit's own run would.
func TestBlockHooks(t *testing.T) {
	const block = 64
	for _, tc := range []struct {
		name   string
		prog   *kasm.Program
		shared int
		per    int // units per block
	}{
		{"barrier kernel: block units", sharedRevProg(t, block), block, 1},
		{"barrier-free kernel: warp units", warpMapProg(), 0, block / WarpSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkUnitHooks(t, tc.prog, tc.shared, tc.per)
		})
	}
}

func checkUnitHooks(t *testing.T, prog *kasm.Program, shared, per int) {
	const grid, block = 4, 64
	const n = grid * block
	units, span := grid*per, block/per
	launch := func(g []uint32, hooks Hooks) *Launch {
		return &Launch{Prog: prog, Grid: grid, Block: block, Global: g, SharedWords: shared, Hooks: hooks}
	}
	if pw := decoded(prog).perWarp; pw != (per > 1) {
		t.Fatalf("perWarp = %v for %d units per block", pw, per)
	}
	// unit numbers a (block, warp) pair; a block unit comes with warp -1.
	unit := func(b, w int) int {
		if w < -1 || w >= per || (w == -1) != (per == 1) {
			t.Fatalf("unit (%d, %d) with %d units per block", b, w, per)
		}
		return b*per + max(w, 0)
	}
	gWant := sharedRevInput(n)
	var ends []uint64 // counters after each unit of the full run
	full := launch(gWant, Hooks{})
	full.BlockDone = func(b, w int, r *Result) bool {
		if u := unit(b, w); u != len(ends) {
			t.Fatalf("BlockDone for unit %d after %d units", u, len(ends))
		}
		ends = append(ends, r.DynThreadInstrs)
		return true
	}
	want, err := Run(full)
	if err != nil || len(ends) != units || ends[units-1] != want.DynThreadInstrs {
		t.Fatalf("full run: %v, unit ends %v, total %d", err, ends, want.DynThreadInstrs)
	}
	outOf := func(g []uint32, u int) []uint32 { return g[n+u*span : n+(u+1)*span] }
	startOf := func(u int) uint64 {
		if u == 0 {
			return 0
		}
		return ends[u-1]
	}
	// hooked runs l with a Replay that takes the units in take — copying
	// their golden output and charging their golden count — and returns
	// the units it was offered and the units that ran.
	hooked := func(l *Launch, take func(int) bool, resume *Snapshot) (res Result, offered, ran []int, err error) {
		l.Replay = func(b, w int, r *Result) uint32 {
			u := unit(b, w)
			offered = append(offered, u)
			if !take(u) {
				return ^uint32(0)
			}
			copy(outOf(l.Global, u), outOf(gWant, u))
			r.DynThreadInstrs += ends[u] - startOf(u)
			return 0
		}
		l.BlockDone = func(b, w int, r *Result) bool {
			u := unit(b, w)
			ran = append(ran, u)
			if r.DynThreadInstrs != ends[u] {
				t.Fatalf("unit %d ended at %d, want %d", u, r.DynThreadInstrs, ends[u])
			}
			return true
		}
		if resume != nil {
			res, err = Resume(l, resume)
		} else {
			res, err = Run(l)
		}
		return res, offered, ran, err
	}
	pick := func(from int, keep func(int) bool) []int {
		var out []int
		for u := from; u < units; u++ {
			if keep(u) {
				out = append(out, u)
			}
		}
		return out
	}

	for mask := 0; mask < 1<<units; mask++ {
		take := func(u int) bool { return mask>>u&1 == 1 }
		g := sharedRevInput(n)
		res, offered, ran, err := hooked(launch(g, Hooks{}), take, nil)
		if err != nil || res.DynThreadInstrs != want.DynThreadInstrs || !equalWords(g, gWant) {
			t.Fatalf("replayed %b: %v after %d instructions (want %d), arena equal %v",
				mask, err, res.DynThreadInstrs, want.DynThreadInstrs, equalWords(g, gWant))
		}
		if !slices.Equal(offered, pick(0, func(int) bool { return true })) ||
			!slices.Equal(ran, pick(0, func(u int) bool { return !take(u) })) {
			t.Fatalf("replayed %b: offered %v, ran %v", mask, offered, ran)
		}
	}

	// The watchdog: a budget one short of the total trips in the last
	// unit at the same instruction whether or not the units before it
	// ran.
	budget := want.DynThreadInstrs - 1
	l := launch(sharedRevInput(n), Hooks{})
	l.MaxDynInstrs = budget
	pres, perr := Run(l)
	l = launch(sharedRevInput(n), Hooks{})
	l.MaxDynInstrs = budget
	res, _, _, err := hooked(l, func(u int) bool { return u < units-1 }, nil)
	var ple, le *LaunchError
	if !errors.As(perr, &ple) || !errors.As(err, &le) || *ple != *le || !errors.Is(err, ErrWatchdog) ||
		res.DynThreadInstrs != pres.DynThreadInstrs {
		t.Fatalf("watchdog: plain %v after %d, replayed %v after %d",
			perr, pres.DynThreadInstrs, err, res.DynThreadInstrs)
	}

	// The countdown: units 0 and 1 replayed. Arming due inside unit 1
	// happens at unit 2's first instruction; arming due later happens
	// where the full run arms.
	for _, armAfter := range []uint64{ends[0] + 10, ends[1] - 10, ends[1] + 100, ends[2] + 5} {
		armRun := func(take func(int) bool) (armedAt, hookInstrs uint64) {
			g := sharedRevInput(n)
			_, _, _, err := hooked(launch(g, Hooks{
				Post:     func(ev *Event) { hookInstrs += uint64(ev.ActiveCount()) },
				ArmAfter: armAfter,
				OnArm:    func(r *Result) { armedAt = r.DynThreadInstrs },
			}), take, nil)
			if err != nil || !equalWords(g, gWant) {
				t.Fatalf("armAfter=%d: %v", armAfter, err)
			}
			return armedAt, hookInstrs
		}
		fullAt, _ := armRun(func(int) bool { return false })
		at, hooks := armRun(func(u int) bool { return u < 2 })
		if at != max(fullAt, ends[1]) || at+hooks != want.DynThreadInstrs {
			t.Fatalf("armAfter=%d: armed at %d with %d hooked, full run armed at %d",
				armAfter, at, hooks, fullAt)
		}
	}

	var snaps []*Snapshot
	var images [][]uint32
	gRec := sharedRevInput(n)
	if _, err := RunCheckpointed(launch(gRec, Hooks{}), 100, 300, func(s *Snapshot) {
		snaps = append(snaps, s)
		images = append(images, slices.Clone(gRec))
	}); err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps {
		at := unit(s.Block(), s.Warp())
		g := slices.Clone(images[i])
		res, offered, ran, err := hooked(launch(g, Hooks{}), func(int) bool { return true }, s)
		if err != nil || res.DynThreadInstrs != want.DynThreadInstrs || !equalWords(g, gWant) {
			t.Fatalf("snapshot %d in unit %d: %v after %d instructions", i, at, err, res.DynThreadInstrs)
		}
		if !slices.Equal(offered, pick(at+1, func(int) bool { return true })) || !slices.Equal(ran, []int{at}) {
			t.Fatalf("snapshot %d in unit %d: offered %v, ran %v", i, at, offered, ran)
		}
	}
}

// TestMemTraceStores: Touched lists exactly the Writes words stores marked;
// Inputs lists each word loaded before a store to it, once, with the value
// loaded; Clear resets both.
func TestMemTraceStores(t *testing.T) {
	const n = 128
	prog := sharedRevProg(t, 64)
	// Every thread stores out[tid], loads it back (no input: stored
	// first), loads in[tid] twice and in[0] once (inputs, each once).
	b := kasm.New("inputs")
	b.S2R(rTid, isa.SRTid)
	b.Gst(rTid, n, rTid)
	b.Gld(rA, rTid, n)
	b.Gld(rA, rTid, 0)
	b.Gld(rB, rTid, 0)
	b.Gld(rC, isa.RZ, 0)
	inputs := kasm.MustFinalize(b)
	words := (2*n + 63) / 64
	mt := &MemTrace{Writes: make([]uint64, words), Loaded: make([]uint64, words)}
	l := sharedRevLaunch(prog, sharedRevInput(n), Hooks{})
	l.Mem = mt
	if _, err := Run(l); err != nil {
		t.Fatal(err)
	}
	// The kernel stores out = words n..2n-1, each once, after loading
	// in = words 0..n-1, each once.
	for k, m := range mt.Writes {
		if want := uint64(0); k >= n/64 {
			if want = ^want; m != want {
				t.Fatalf("Writes[%d] = %x", k, m)
			}
		} else if m != 0 {
			t.Fatalf("Writes[%d] = %x, the kernel stores nothing there", k, m)
		}
	}
	if len(mt.Touched) != n/64 || mt.Touched[0] != n/64 || mt.Touched[1] != n/64+1 {
		t.Fatalf("Touched = %v", mt.Touched)
	}
	if len(mt.Inputs) != n {
		t.Fatalf("%d inputs, want %d", len(mt.Inputs), n)
	}
	for i, in := range mt.Inputs {
		if in.Addr >= n || in.Val != 3*in.Addr || i > 0 && mt.Inputs[i-1].Addr == in.Addr {
			t.Fatalf("input %d = %+v", i, in)
		}
	}
	mt.Clear()
	if len(mt.Touched) != 0 || len(mt.Inputs) != 0 || slices.ContainsFunc(append(mt.Writes, mt.Loaded...), func(m uint64) bool { return m != 0 }) {
		t.Fatalf("Clear left %v, %v, %x, %x", mt.Touched, mt.Inputs, mt.Writes, mt.Loaded)
	}

	g := sharedRevInput(n)
	if _, err := Run(&Launch{Prog: inputs, Grid: 1, Block: 64, Global: g, Mem: mt}); err != nil {
		t.Fatal(err)
	}
	want := []Load{{0, 0}}
	for i := uint32(1); i < 64; i++ {
		want = append(want, Load{i, 3 * i})
	}
	slices.SortFunc(mt.Inputs, func(x, y Load) int { return int(x.Addr) - int(y.Addr) })
	if !slices.Equal(mt.Inputs, want) {
		t.Fatalf("inputs %v, want %v", mt.Inputs, want)
	}
	mt.Clear()
}
