package rtl

import (
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// liveHarness drives a Liveness with a hand-written access schedule the
// way Machine.stepCycle would: markCycle pins the cycle's fault
// application point, then the cycle's "phase logic" touches the state.
// It gives the boundary-semantics tests full control over where reads,
// writes and resets land relative to fault sites.
type liveHarness struct {
	l  *Liveness
	st *State
	f  int // the single field's index
}

func newLiveHarness() *liveHarness {
	lay := NewLayout("test", []Field{{Name: "f", Width: 4}})
	st := NewState(lay)
	l := &Liveness{}
	mi := moduleIndex(faults.ModFP32)
	l.mods[mi].init(lay)
	st.live, st.liveMod = l, mi
	return &liveHarness{l: l, st: st, f: lay.MustField("f")}
}

func (h *liveHarness) cycle(accesses ...func()) {
	h.l.markCycle(uint64(len(h.l.cycleStart)))
	for _, a := range accesses {
		a()
	}
}

func (h *liveHarness) read() func()  { return func() { h.st.Get(h.f) } }
func (h *liveHarness) write() func() { return func() { h.st.Set(h.f, 1) } }
func (h *liveHarness) reset() func() { return func() { h.st.Reset() } }

// TestLivenessBoundarySemantics pins DeadAt at every boundary the engine
// depends on: a fault at the cycle of a write event, at the
// cycle of a read event, at a Reset, and at the traced run's last cycle.
func TestLivenessBoundarySemantics(t *testing.T) {
	h := newLiveHarness()
	h.cycle(h.write()) // cycle 0: write
	h.cycle(h.read())  // cycle 1: read
	h.cycle(h.read())  // cycle 2: read
	h.cycle(h.write()) // cycle 3: overwrite
	h.cycle()          // cycle 4: idle
	h.cycle(h.read())  // cycle 5: read
	h.cycle(h.reset()) // cycle 6: whole-module Reset
	h.cycle(h.read())  // cycle 7: read
	h.cycle()          // cycle 8: last cycle, idle

	cases := []struct {
		name  string
		cycle uint64
		dead  bool
	}{
		// A fault lands at the *start* of its cycle, so a same-cycle
		// write event overwrites it: provably dead.
		{"at write cycle (pre-overwrite)", 0, true},
		// A same-cycle read event happens after the cycle start, so it is
		// the corrupted value's first observation: live.
		{"at read cycle", 1, false},
		{"between reads", 2, false},
		// Overwrite cycle again, now after a live span closed.
		{"at overwrite cycle", 3, true},
		// An idle cycle and the following read cycle corrupt the same
		// stored value, which that read observes: both live.
		{"idle before read", 4, false},
		{"at that read cycle", 5, false},
		// Reset writes every field: a fault at the Reset cycle dies.
		{"at Reset cycle", 6, true},
		// The post-Reset value is read once more: live.
		{"after Reset", 7, false},
		// Never read after the last access: dead at the last cycle.
		{"last cycle (never read again)", 8, true},
	}
	for _, tc := range cases {
		if dead := h.l.DeadAt(faults.ModFP32, 0, tc.cycle); dead != tc.dead {
			t.Errorf("%s: DeadAt(cycle %d) = %v, want %v", tc.name, tc.cycle, dead, tc.dead)
		}
	}

	if got := h.l.Cycles(); got != 9 {
		t.Fatalf("Cycles() = %d, want 9", got)
	}
}

// TestLivenessOutOfRange pins the conservative answer outside the traced
// run: DeadAt cannot prove such a site dead, so it reports live.
func TestLivenessOutOfRange(t *testing.T) {
	h := newLiveHarness()
	h.cycle(h.write())
	h.cycle(h.read())

	if h.l.DeadAt(faults.ModFP32, 0, 99) {
		t.Error("DeadAt past the traced run must conservatively report live")
	}
	for _, bit := range []int{-1, 4, 1 << 20} {
		if h.l.DeadAt(faults.ModFP32, bit, 1) {
			t.Errorf("DeadAt(bit %d) outside the layout must report live", bit)
		}
	}
}

// TestScopedLivenessMatchesFullTrace checks the projection argument behind
// NewLiveness on real golden runs: tracing one module answers DeadAt for
// every bit and cycle of that module exactly as the six-module trace
// does, and reports every site of the other five modules live.
func TestScopedLivenessMatchesFullTrace(t *testing.T) {
	floats := make([]uint32, 256)
	for i := range floats[:192] {
		floats[i] = f32(0.01 + float32(i%64)*0.024)
	}
	runs := []struct {
		name        string
		prog        *kasm.Program
		global      []uint32
		sharedWords int
		unit        faults.Module // the functional unit the kernel exercises
	}{
		{"FP32", vecOpProg(t, isa.OpFFMA), floats, 0, faults.ModFP32},
		{"SFU", vecOpProg(t, isa.OpFSIN), floats, 0, faults.ModSFU},
		{"two-warp barrier", wedgeProg(t), wedgeInputs(), 64, faults.ModINT},
	}
	trace := func(t *testing.T, l *Liveness, prog *kasm.Program, global []uint32, sharedWords int) {
		t.Helper()
		m := New()
		m.TraceLiveness(l)
		if err := m.Run(prog, 1, 64, append([]uint32(nil), global...), sharedWords, testMaxCycles); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			full := &Liveness{}
			trace(t, full, r.prog, r.global, r.sharedWords)
			for _, mod := range faults.AllModules() {
				scoped := NewLiveness(mod)
				trace(t, scoped, r.prog, r.global, r.sharedWords)
				if scoped.Cycles() != full.Cycles() {
					t.Fatalf("%s: scoped trace saw %d cycles, full trace %d", mod, scoped.Cycles(), full.Cycles())
				}
				dead := 0
				for _, q := range faults.AllModules() {
					for bit := 0; bit < ModuleBits(q); bit++ {
						for cycle := uint64(0); cycle < full.Cycles(); cycle++ {
							gotDead := scoped.DeadAt(q, bit, cycle)
							if q != mod {
								if gotDead {
									t.Fatalf("trace scoped to %s: %s bit %d cycle %d answered dead, want live",
										mod, q, bit, cycle)
								}
								continue
							}
							if wantDead := full.DeadAt(q, bit, cycle); gotDead != wantDead {
								t.Fatalf("%s bit %d cycle %d: scoped dead=%v, full dead=%v",
									q, bit, cycle, gotDead, wantDead)
							}
							if gotDead {
								dead++
							}
						}
					}
				}
				// A module the kernel never enters is dead throughout; the
				// scheduler and the pipeline are in every kernel.
				sites := ModuleBits(mod) * int(full.Cycles())
				used := mod == faults.ModSched || mod == faults.ModPipe || mod == r.unit
				if used && (dead == 0 || dead == sites) {
					t.Errorf("%s: %d of %d sites dead; the sweep compares nothing", mod, dead, sites)
				}
			}
		})
	}
}
