package replay

import (
	"fmt"
	"testing"

	"gpufi/internal/emu"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// The liveness tests mirror internal/rtl's boundary-semantics tests at
// instruction granularity. Every launch is one full warp of straight-line
// code, so the k-th countable instruction of the run (program order,
// across launches) owns countable sites 32k..32k+31, one per lane.

func countLive(op isa.Opcode) bool {
	return op == isa.OpIMUL || op == isa.OpIADD || op == isa.OpGST
}

func testMag(ev *emu.Event, lane int) float64 { return float64(ev.SrcA(lane)) }

// Arena regions of the liveness workloads, 32 words each.
const (
	lvIn = 32 * iota
	lvX
	lvScratch
	lvOut
	lvWords
)

func runLive(rt Runner, progs []*kasm.Program) error {
	g := rt.Arena(lvWords)
	for i := 0; i < 32; i++ {
		g[lvIn+i] = uint32(3*i + 2)
	}
	for _, prog := range progs {
		if err := rt.Launch(&emu.Launch{Prog: prog, Grid: 1, Block: 32, Global: g}); err != nil {
			return err
		}
	}
	return nil
}

// liveIndex records progs with liveness capture and returns the dead-site
// index under the given boundary policy (output region lvOut).
func liveIndex(t *testing.T, progs []*kasm.Program, boundaryAllLive bool) *Liveness {
	t.Helper()
	rec := NewRecorder(1<<20, countLive)
	rec.CaptureLiveness(testMag)
	if err := runLive(rec, progs); err != nil {
		t.Fatal(err)
	}
	rec.ComputeLiveness(lvOut, 32, boundaryAllLive)
	lv := rec.Finish().Live
	if lv == nil || lv.Sites() != rec.Finish().Count {
		t.Fatalf("liveness index covers %v sites, trace counts %d", lv, rec.Finish().Count)
	}
	return lv
}

type siteWant struct {
	name string
	dead bool
}

// checkSites compares the verdict of every lane of every countable
// instruction against want (indexed by countable-instruction ordinal).
func checkSites(t *testing.T, lv *Liveness, want []siteWant) {
	t.Helper()
	if lv.Sites() != uint64(32*len(want)) {
		t.Fatalf("index covers %d sites, the programs have %d countable instructions", lv.Sites(), len(want))
	}
	var dead uint64
	for k, w := range want {
		for lane := 0; lane < 32; lane++ {
			if _, d := lv.Dead(uint64(32*k + lane)); d != w.dead {
				t.Errorf("%s (instruction %d, lane %d): dead = %v, want %v", w.name, k, lane, d, w.dead)
				break
			}
		}
		if w.dead {
			dead += 32
		}
	}
	if lv.DeadSites() != dead {
		t.Errorf("DeadSites() = %d, want %d", lv.DeadSites(), dead)
	}
}

const (
	lTid = isa.Reg(iota + 1)
	lVal
	lA
	lB
	lC
	lD
	lE
	lF
	lG
)

func TestLivenessWithinALaunch(t *testing.T) {
	b := kasm.New("intra")
	b.S2R(lTid, isa.SRTid)
	b.Gld(lVal, lTid, lvIn)
	var want []siteWant
	site := func(name string, dead bool) { want = append(want, siteWant{name, dead}) }

	b.IMulI(lA, lVal, 3)
	site("overwritten before any read", true)
	b.IMulI(lA, lVal, 5)
	site("the overwriting value, stored below", false)

	b.IMulI(lB, lVal, 7)
	site("read only by a dead instruction", true)
	b.IAddI(lC, lB, 1)
	site("result never read", true)

	b.IMulI(lD, lTid, 1)
	site("address of a load whose result is dead", false)
	b.Gld(lC, lD, lvIn)

	b.IMulI(lE, lVal, 2)
	site("ISETP input, predicate never used", false)
	b.ISetPI(isa.P(0), isa.CmpGT, lE, 0)
	b.IMulI(lF, lVal, 4)
	site("FSETP input, predicate never used", false)
	b.FSetP(isa.P(1), isa.CmpLT, lF, lF)

	b.IMulI(lG, lTid, 1)
	site("address of a store", false)
	b.Gst(lG, lvScratch, lVal)
	site("store overwritten by the next store", true)
	b.Gst(lG, lvScratch, lA)
	site("last store to the word", false)

	lv := liveIndex(t, []*kasm.Program{kasm.MustFinalize(b)}, true)
	checkSites(t, lv, want)

	if _, d := lv.Dead(lv.Sites()); d {
		t.Error("a site past the index must report live")
	}
	// A trace recorded without CaptureLiveness has a nil index: every
	// accessor must answer for it instead of dereferencing.
	var none *Liveness
	if _, d := none.Dead(0); d {
		t.Error("a nil index must report live")
	}
	if none.Sites() != 0 || none.DeadSites() != 0 {
		t.Errorf("a nil index covers %d sites, %d dead; want 0, 0", none.Sites(), none.DeadSites())
	}
}

// TestLivenessAcrossLaunchBoundary pins the two boundary policies: under
// boundaryAllLive (HPC hosts may read anything between launches) every
// store that survives its launch is live; under the CNN backward flow
// only what reaches the output region through later launches is.
func TestLivenessAcrossLaunchBoundary(t *testing.T) {
	b := kasm.New("producer")
	b.S2R(lTid, isa.SRTid)
	b.Gld(lVal, lTid, lvIn)
	b.IMulI(lA, lVal, 3)
	b.Gst(lTid, lvX, lA)
	b.Gst(lTid, lvScratch, lVal)
	b.Gst(lTid, lvOut, lVal)
	producer := kasm.MustFinalize(b)

	b = kasm.New("consumer")
	b.S2R(lTid, isa.SRTid)
	b.Gld(lVal, lTid, lvX)
	b.IAddI(lB, lVal, 1)
	b.Gst(lTid, lvOut, lB)
	consumer := kasm.MustFinalize(b)
	progs := []*kasm.Program{producer, consumer}

	sites := []struct {
		name              string
		allLive, backward bool // dead under boundaryAllLive / the CNN backward flow
	}{
		{"value stored to a word the next launch reads", false, false},
		{"store to a word the next launch reads", false, false},
		{"store to a word no launch reads", false, true},
		{"output word the next launch overwrites unread", false, true},
		{"next launch: value stored to the output", false, false},
		{"next launch: store to the output", false, false},
	}
	for _, boundaryAllLive := range []bool{true, false} {
		want := make([]siteWant, len(sites))
		for k, st := range sites {
			want[k] = siteWant{st.name, st.backward}
			if boundaryAllLive {
				want[k].dead = st.allLive
			}
		}
		t.Run(fmt.Sprintf("boundaryAllLive=%v", boundaryAllLive), func(t *testing.T) {
			checkSites(t, liveIndex(t, progs, boundaryAllLive), want)
		})
	}
}

// TestDeadSiteInfoIsWhatAnInjectionSees: for every dead site the index
// hands back the opcode, golden output bits and operand magnitude a hook
// firing on that countable instruction observes.
func TestDeadSiteInfoIsWhatAnInjectionSees(t *testing.T) {
	b := kasm.New("dead")
	b.S2R(lTid, isa.SRTid)
	b.Gld(lVal, lTid, lvIn)
	b.IMulI(lA, lVal, 3)       // dead: read only by the dead IADD
	b.IAddI(lB, lA, 11)        // dead: overwritten below
	b.IMulI(lB, lVal, 5)       // live
	b.Gst(lTid, lvScratch, lA) // dead: scratch is outside the output region
	b.Gst(lTid, lvOut, lB)     // live
	progs := []*kasm.Program{kasm.MustFinalize(b)}
	lv := liveIndex(t, progs, false)
	checkSites(t, lv, []siteWant{{"IMUL", true}, {"IADD", true}, {"IMUL", false}, {"GST scratch", true}, {"GST out", false}})

	var seen []SiteInfo
	plain := &Plain{Hooks: emu.Hooks{Post: func(ev *emu.Event) {
		if !countLive(ev.Instr.Op) {
			return
		}
		for lane := 0; lane < 32; lane++ {
			v, _ := ev.DstValue(lane)
			seen = append(seen, SiteInfo{Op: ev.Instr.Op, OldBits: v, Mag: testMag(ev, lane)})
		}
	}}}
	if err := runLive(plain, progs); err != nil {
		t.Fatal(err)
	}
	for idx, want := range seen {
		if got, dead := lv.Dead(uint64(idx)); dead && got != want {
			t.Errorf("site %d: index holds %+v, a firing hook sees %+v", idx, got, want)
		}
	}
}
