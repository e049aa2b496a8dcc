package rtl

import (
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// The hang fast path (Machine.advance) must be invisible: a run that
// wedges ends in exactly the state the cycle-by-cycle run reaches at the
// watchdog. The reference below is the run loop without advance — it calls
// stepCycle, the exact one-cycle transition, until the budget.

// wedgeProg is a kernel around two barriers, so warp states pass through
// READY, ATBAR and DONE at cycle boundaries: both warps meet at the first
// barrier, then warp 0 exits and is retired to DONE by the scheduler scan
// that finds warp 1 waiting, alone, at the second.
func wedgeProg(t *testing.T) *kasm.Program {
	t.Helper()
	b := kasm.New("wedge")
	b.S2R(rTid, isa.SRTid)
	b.Gld(rA, rTid, 0)
	b.Sst(rTid, 0, rA)
	b.Bar()
	b.Sld(rB, rTid, 0)
	b.ISetPI(isa.P(0), isa.CmpLT, rTid, 32)
	b.Emit(isa.Instr{Op: isa.OpEXIT, Guard: isa.P(0)})
	b.Bar()
	b.IAdd(rC, rA, rB)
	b.Gst(rTid, 64, rC)
	p, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func wedgeInputs() []uint32 {
	g := make([]uint32, 128)
	for i := 0; i < 64; i++ {
		g[i] = uint32(3*i + 1)
	}
	return g
}

// steppedRun finishes the machine's current run (launched or restored,
// fault already scheduled) by stepCycle alone. It returns the run's error,
// the number of cycles stepped, and how many of them a run that stops
// stepping at the first wedged cycle would have needed (all of them when
// the machine never wedged).
func steppedRun(m *Machine) (err error, steps, needed uint64) {
	for !m.blockDone && m.err == nil {
		if m.cycle >= m.maxCycles {
			m.err = ErrWatchdog
			break
		}
		wedged := m.stepCycle()
		steps++
		if wedged && needed == 0 {
			needed = steps
		}
	}
	if needed == 0 {
		needed = steps
	}
	m.fault = nil
	return m.err, steps, needed
}

// wedgeCase is one block shape of wedgeProg with its golden run recorded.
type wedgeCase struct {
	prog   *kasm.Program
	block  int
	golden []uint32
	cycles uint64
	budget uint64
	snaps  map[uint64]*Snapshot // golden checkpoints every wedgeEvery cycles
	// stateAt[c][w] is warp w's scheduler state at the start of cycle c.
	stateAt [][3]uint64
}

const wedgeEvery = 8

func newWedgeCase(t *testing.T, block int) *wedgeCase {
	t.Helper()
	wc := &wedgeCase{prog: wedgeProg(t), block: block, snaps: map[uint64]*Snapshot{}}
	m := New()
	wc.golden = wedgeInputs()
	if err := m.launch(wc.prog, 1, block, wc.golden, 64, testMaxCycles); err != nil {
		t.Fatal(err)
	}
	for !m.blockDone {
		if m.cycle%wedgeEvery == 0 {
			wc.snaps[m.cycle] = m.Snapshot()
		}
		var st [3]uint64
		for w := range st {
			st[w] = m.Sched.getRaw(m.sf.state[w])
		}
		wc.stateAt = append(wc.stateAt, st)
		if m.stepCycle() || m.err != nil {
			t.Fatalf("golden run wedged or failed at cycle %d: %v", m.cycle, m.err)
		}
	}
	wc.cycles = m.cycle
	// A tight budget keeps the stepped reference cheap; the fast path's
	// arithmetic does not depend on the factor.
	wc.budget = 2*wc.cycles + 37
	return wc
}

// steppedOutcome is what March must report for one lane: the stepped
// reference's final image, error and cycle count.
type steppedOutcome struct {
	g   []uint32
	err error
	end uint64
}

func (wc *wedgeCase) goldenAt(c uint64) *Snapshot { return wc.snaps[c] }

// reference runs f from cycle 0 by stepCycle alone.
func (wc *wedgeCase) reference(t *testing.T, m *Machine, f Fault) (g []uint32, err error, needed uint64) {
	t.Helper()
	g = wedgeInputs()
	if err := m.launch(wc.prog, 1, wc.block, g, 64, wc.budget); err != nil {
		t.Fatal(err)
	}
	m.Inject(f)
	err, _, needed = steppedRun(m)
	return g, err, needed
}

func stateBit(m *Machine, w, bit int) int {
	return m.Sched.Lay.Fields[m.sf.state[w]].Offset + bit
}

// TestWedgeIdentity sweeps every single-bit flip of the state fields of
// warps 0–2 (two live warps and an empty slot, or one live warp and two
// empty slots) over every cycle of the golden run and demands that Run,
// RunFromPruned and March end exactly where the stepped reference does.
// The sweep must produce every invalid state encoding (4–7) the block
// shape can hold at a cycle boundary, and hangs from flips both early and
// late in the run.
func TestWedgeIdentity(t *testing.T) {
	for _, block := range []int{32, 64} {
		wc := newWedgeCase(t, block)
		ref, m := New(), New()
		eng := NewVecEngine()
		defer eng.Close()
		sched := NewMarchSched()

		encodings := map[uint64]bool{}
		hangs, barrierWedges := 0, 0
		hangEarly, hangLate := false, false

		var lane []Fault
		var laneRef []steppedOutcome
		flush := func() {
			if len(lane) == 0 {
				return
			}
			for pass, opts := range []*MarchOpts{nil, {Sched: sched, GoldenCycles: wc.cycles, FinalGlobal: wc.golden}} {
				outs, err := eng.March(wc.prog, wc.block, wedgeInputs(), 64, lane, wc.budget, opts)
				if err != nil {
					t.Fatalf("block %d: march: %v", block, err)
				}
				for i, o := range outs {
					r := laneRef[i]
					if o.Err != r.err {
						t.Fatalf("block %d pass %d fault %+v: march err %v, stepped %v", block, pass, lane[i], o.Err, r.err)
					}
					if o.End != r.end {
						t.Fatalf("block %d pass %d fault %+v: march End %d, stepped Cycles %d", block, pass, lane[i], o.End, r.end)
					}
					if o.Sim > o.End {
						t.Fatalf("block %d pass %d fault %+v: Sim %d exceeds End %d", block, pass, lane[i], o.Sim, o.End)
					}
					if o.Err != nil {
						continue
					}
					img := o.Global
					if o.GoldenGlobal {
						img = wc.golden
					}
					if !memEqual(img, r.g) {
						t.Fatalf("block %d pass %d fault %+v: march image differs from stepped run", block, pass, lane[i])
					}
				}
			}
			lane, laneRef = lane[:0], laneRef[:0]
		}

		for c := uint64(0); c < wc.cycles; c++ {
			for w := 0; w < 3; w++ {
				for bit := 0; bit < 3; bit++ {
					f := Fault{Module: faults.ModSched, Bit: stateBit(ref, w, bit), Cycle: c}
					refG, refErr, refNeeded := wc.reference(t, ref, f)
					want := ref.Snapshot()

					if enc := wc.stateAt[c][w] ^ 1<<uint(bit); enc > stDone {
						encodings[enc] = true
					}
					if refErr == ErrWatchdog {
						hangs++
						if c < wc.cycles/2 {
							hangEarly = true
						} else {
							hangLate = true
						}
						if ref.cycle != wc.budget {
							t.Fatalf("stepped hang ended at cycle %d, budget %d", ref.cycle, wc.budget)
						}
						for v := 0; v < 2; v++ {
							if v != w && ref.Sched.getRaw(ref.sf.state[v]) == stAtBar {
								barrierWedges++
							}
						}
					}

					// Run: the whole faulty run from cycle 0.
					g := wedgeInputs()
					m.Inject(f)
					err := m.Run(wc.prog, 1, wc.block, g, 64, wc.budget)
					if err != refErr {
						t.Fatalf("block %d fault %+v: Run err %v, stepped %v", block, f, err, refErr)
					}
					if !m.matches(want) || !memEqual(g, refG) {
						t.Fatalf("block %d fault %+v: Run's final state differs from the stepped run's (cycles %d vs %d)",
							block, f, m.Cycles(), ref.Cycles())
					}
					// Only the repeated stall cycles are skipped: what is stepped
					// is the prefix up to and including the first of them.
					if got := m.Cycles() - m.SkippedCycles(); got != refNeeded {
						t.Fatalf("block %d fault %+v: stepped %d cycles (skipped %d), want %d", block, f, got, m.SkippedCycles(), refNeeded)
					}

					// RunFromPruned: resume the latest checkpoint at or before
					// the fault, with golden-reconvergence pruning on.
					snap := wc.snaps[c/wedgeEvery*wedgeEvery]
					m.Inject(f)
					pruned, err := m.RunFromPruned(snap, wc.budget, wedgeEvery, wc.goldenAt)
					switch {
					case pruned:
						if err != nil || refErr != nil || ref.Cycles() != wc.cycles || !memEqual(refG, wc.golden) {
							t.Fatalf("block %d fault %+v: pruned as golden, stepped run err %v cycles %d", block, f, refErr, ref.Cycles())
						}
					case err != refErr:
						t.Fatalf("block %d fault %+v: RunFromPruned err %v, stepped %v", block, f, err, refErr)
					case !m.matches(want):
						t.Fatalf("block %d fault %+v: RunFromPruned's final state differs from the stepped run's", block, f)
					}

					lane = append(lane, f)
					laneRef = append(laneRef, steppedOutcome{refG, refErr, ref.Cycles()})
					if len(lane) == VecMaxLanes {
						flush()
					}
				}
			}
		}
		flush()

		wantEnc := []uint64{4, 5, 6, 7}
		if block == 32 {
			// A one-warp block never holds DONE at a cycle boundary: the
			// scheduler cycle that retires the last warp ends the block.
			wantEnc = []uint64{4, 5, 6}
		}
		for _, enc := range wantEnc {
			if !encodings[enc] {
				t.Errorf("block %d: the sweep never produced state encoding %d", block, enc)
			}
		}
		if !hangEarly || !hangLate {
			t.Errorf("block %d: hangs from early flips %v, from late flips %v; want both", block, hangEarly, hangLate)
		}
		if block == 64 && barrierWedges == 0 {
			t.Error("no wedge left the other warp waiting at the barrier")
		}
		t.Logf("block %d: %d cycles, %d hangs (%d beside a warp at the barrier)", block, wc.cycles, hangs, barrierWedges)
	}
}

// TestWedgePendingFault: a machine that stalls while an injection is still
// pending must keep stepping — the flip may rewrite the very state field
// that wedged it. Warp 1's state is corrupted by hand so that the stall
// begins fault-free; the scheduled fault then either repairs it (the run
// completes) or lands elsewhere (the run hangs, and only the cycles after
// the injection may be skipped).
func TestWedgePendingFault(t *testing.T) {
	wc := newWedgeCase(t, 64)
	ref, m := New(), New()

	// Corrupt warp 1 (READY -> 5) once both warps are past the barrier, so
	// that warp 0 runs to completion and the scheduler then stalls.
	var poke uint64
	for c, st := range wc.stateAt {
		if st[0] == stReady && st[1] == stReady && c > len(wc.stateAt)*2/3 {
			poke = uint64(c)
			break
		}
	}
	g := wedgeInputs()
	if err := m.launch(wc.prog, 1, 64, g, 64, wc.budget); err != nil {
		t.Fatal(err)
	}
	for m.cycle < poke {
		m.stepCycle()
	}
	m.Sched.setRaw(m.sf.state[1], 5)
	poked := m.Snapshot()

	// Find where the stall starts.
	ref.Restore(poked)
	stallFrom := uint64(0)
	for stallFrom == 0 {
		if ref.stepCycle() {
			stallFrom = ref.cycle
		}
		if ref.cycle > wc.budget {
			t.Fatal("poked machine never stalled")
		}
	}
	at := stallFrom + 20

	for _, tc := range []struct {
		name string
		bit  int
		hang bool
	}{
		{"repair", stateBit(m, 1, 2), false},
		{"elsewhere", m.Sched.Lay.Fields[m.sf.perfctr].Offset, true},
	} {
		f := Fault{Module: faults.ModSched, Bit: tc.bit, Cycle: at}
		ref.Restore(poked)
		ref.maxCycles = wc.budget
		ref.Inject(f)
		refErr, refSteps, _ := steppedRun(ref)
		if (refErr == ErrWatchdog) != tc.hang {
			t.Fatalf("%s: stepped run err %v", tc.name, refErr)
		}
		m.Inject(f)
		err := m.RunFrom(poked, wc.budget)
		if err != refErr {
			t.Fatalf("%s: RunFrom err %v, stepped %v", tc.name, err, refErr)
		}
		if !m.matches(ref.Snapshot()) {
			t.Fatalf("%s: RunFrom's final state differs from the stepped run's (cycles %d vs %d)", tc.name, m.Cycles(), ref.Cycles())
		}
		stepped := m.Cycles() - poked.Cycle() - m.SkippedCycles()
		if !tc.hang {
			if stepped != refSteps {
				t.Errorf("%s: stepped %d cycles, reference %d", tc.name, stepped, refSteps)
			}
			continue
		}
		// Every stall cycle up to and including the injection's is stepped;
		// everything after it is skipped.
		if want := at + 1 - poked.Cycle(); stepped != want {
			t.Errorf("%s: stepped %d cycles, want %d (through the injection cycle)", tc.name, stepped, want)
		}
	}
}

// TestWatchdogLivelockStillStepped: the fast path recognises the wedged
// scheduler only. A program that never terminates on its own still runs
// out the budget cycle by cycle.
func TestWatchdogLivelockStillStepped(t *testing.T) {
	b := kasm.New("hang")
	b.Label("top")
	b.Bra("top")
	prog, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	const budget = 5000
	ref, m := New(), New()
	if err := ref.launch(prog, 1, 32, nil, 0, budget); err != nil {
		t.Fatal(err)
	}
	refErr, refSteps, _ := steppedRun(ref)
	if err := m.Run(prog, 1, 32, nil, 0, budget); err != refErr || err != ErrWatchdog {
		t.Fatalf("Run err %v, stepped %v, want ErrWatchdog", err, refErr)
	}
	if m.Cycles() != budget || m.SkippedCycles() != 0 || refSteps != budget {
		t.Fatalf("cycles %d skipped %d stepped-reference %d, want %d / 0 / %d", m.Cycles(), m.SkippedCycles(), refSteps, budget, budget)
	}
	if !m.matches(ref.Snapshot()) {
		t.Fatal("final state differs from the stepped run's")
	}
}

// TestMarchLockstepBudget: a lane that wedges while the golden run still
// has cycles left is graded as a hang on the spot — its clock is at its
// own budget — rather than carried in lockstep past it. In a one-warp
// block, warp 0's corrupted state is read by the next scheduler cycle:
// the lane unparks there, stalls in that very cycle, and is done.
func TestMarchLockstepBudget(t *testing.T) {
	wc := newWedgeCase(t, 32)
	m := New()
	at := wc.cycles / 3
	for wc.stateAt[at][0] != stReady {
		at++
	}
	fs := []Fault{
		{Module: faults.ModSched, Bit: stateBit(m, 0, 2), Cycle: at},
		{Module: faults.ModSched, Bit: m.Sched.Lay.Fields[m.sf.perfctr].Offset, Cycle: at}, // never read: Masked
	}
	eng := NewVecEngine()
	defer eng.Close()
	outs, err := eng.March(wc.prog, 32, wedgeInputs(), 64, fs, wc.budget, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o := outs[0]; o.Err != ErrWatchdog || o.End != wc.budget || o.Sim != 1 {
		t.Errorf("wedged lane: err %v End %d Sim %d, want ErrWatchdog, %d, 1", o.Err, o.End, o.Sim, wc.budget)
	}
	if o := outs[1]; o.Err != nil || !o.GoldenGlobal || o.End != wc.cycles {
		t.Errorf("masked lane: err %v golden %v End %d, want nil, true, %d", o.Err, o.GoldenGlobal, o.End, wc.cycles)
	}
}
