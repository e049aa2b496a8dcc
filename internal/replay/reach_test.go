package replay

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"gpufi/internal/emu"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// The hazard workloads: two launches of 64 threads (2 blocks x 32). The
// first reads src and writes A; host code may run between them; the second
// reads A or B and writes C. Each plants a fault in thread 10's IMUL whose
// effect reaches the second launch by a path that no store of the faulty
// run to the word it loads shows — the cases D′ must cover beyond the
// stores the emulator traces.
const (
	hzSrc   = 0
	hzA     = hzSrc + stN
	hzB     = hzA + stN
	hzC     = hzB + stN
	hzWords = hzC + stN
)

// hzPrologue loads src[idx] into rVal, idx being the thread's global index.
func hzPrologue(name string) *kasm.Builder {
	b := kasm.New(name)
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNtid, isa.SRNtid)
	b.IMad(rIdx, rCta, rNtid, rTid)
	b.Gld(rVal, rIdx, hzSrc)
	return b
}

// hzConsume is the second launch: C[idx] = from[idx] + 1.
func hzConsume(from int32) *kasm.Program {
	b := kasm.New("consume")
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNtid, isa.SRNtid)
	b.IMad(rIdx, rCta, rNtid, rTid)
	b.Gld(rVal, rIdx, from)
	b.IAddI(rOut, rVal, 1)
	b.Gst(rIdx, hzC, rOut)
	return kasm.MustFinalize(b)
}

// hzLaunch runs prog over the hazard geometry.
func hzLaunch(rt Runner, g []uint32, prog *kasm.Program) error {
	return rt.Launch(&emu.Launch{Prog: prog, Grid: stGrid, Block: stBlock, Global: g})
}

// twoLaunches is the hazard workload of produce, then host, then
// consume.
func twoLaunches(produce, consume *kasm.Program, host func(rt Runner, g []uint32)) func(Runner, []uint32) error {
	return func(rt Runner, g []uint32) error {
		if err := hzLaunch(rt, g, produce); err != nil {
			return err
		}
		if host != nil {
			host(rt, g)
		}
		return hzLaunch(rt, g, consume)
	}
}

// checkHazard records work on the hazard arena, runs it with a flip of
// mask in thread 10's IMUL on a Plain runner and on a Player, and
// requires the same arena, error and instruction total, and a post-fault
// unit that D′ sent to the value compare.
func checkHazard(t *testing.T, work func(rt Runner, g []uint32) error, mask uint32) {
	t.Helper()
	run := func(rt Runner) ([]uint32, error) {
		rt = checkHost(rt)
		g := rt.Arena(hzWords)
		for i := 0; i < stN; i++ {
			g[hzSrc+i] = uint32(i + 1)
			g[hzB+i] = uint32(1000 + i)
		}
		err := work(rt, g)
		return slices.Clone(g), err
	}
	rec := NewRecorder(50, countIMUL)
	golden, err := run(rec)
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Finish()
	ref := &flip{target: 10, mask: mask}
	plain := &Plain{Hooks: ref.hooks()}
	want, werr := run(plain)
	if slices.Equal(want[hzC:], golden[hzC:]) {
		t.Fatal("the fault does not reach C in a plain run")
	}
	f := &flip{target: 10, mask: mask}
	p := f.player(tr, &Pool{})
	got, err := run(p)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("player ended with %v, plain run with %v", err, werr)
	}
	if !slices.Equal(got, want) {
		t.Errorf("arena differs from the plain faulty run at C[10]: %d, plain %d (golden %d)", got[hzC+10], want[hzC+10], golden[hzC+10])
	}
	if sum := p.Live.DynThreadInstrs + p.Skipped; sum != plain.Res.DynThreadInstrs {
		t.Errorf("sim + skipped = %d, the plain run executes %d", sum, plain.Res.DynThreadInstrs)
	}
	if p.Reach.Compared == 0 {
		t.Errorf("no post-fault unit was compared: %+v", p.Reach)
	}
}

// TestReachSkippedStore: a flip of the product's sign bit turns thread
// 10's store guard off, so A[10] keeps the value it had before the launch.
// The faulty run stores nothing there; the unit's recorded write of A[10]
// puts it in D′, and the second launch's first warp, which loads it, runs
// lane 10.
func TestReachSkippedStore(t *testing.T) {
	b := hzPrologue("guarded")
	b.IMulI(rProd, rVal, 3)
	b.ISetPI(isa.P(0), isa.CmpGE, rProd, 0)
	b.MovI(rOut, 7)
	b.GstIf(isa.P(0), rIdx, hzA, rOut)
	checkHazard(t, twoLaunches(kasm.MustFinalize(b), hzConsume(hzA), nil), 1<<31)
}

// TestReachStrayStore: the product is a zero offset added to thread 10's
// store address; a flip of its bit 6 sends the store one region up, from
// A[10] to B[10], outside every recorded write of the launch and into the
// input of the second launch, which reads B. Only the stored-word trace
// puts B[10] in D′.
func TestReachStrayStore(t *testing.T) {
	b := hzPrologue("stray")
	b.IMulI(rProd, rVal, 0)
	b.IAdd(rOut, rIdx, rProd)
	b.Gst(rOut, hzA, rVal)
	checkHazard(t, twoLaunches(kasm.MustFinalize(b), hzConsume(hzB), nil), 1<<6)
}

// TestReachHostCopy: the fault corrupts A[10], and host code copies A over
// B before the second launch, which reads B. HostCopy carries A[10]'s
// place in D′ to B[10].
func TestReachHostCopy(t *testing.T) {
	b := hzPrologue("product")
	b.IMulI(rProd, rVal, 3)
	b.Gst(rIdx, hzA, rProd)
	copyAB := func(rt Runner, g []uint32) { HostCopy(rt, g, hzB, hzA, stN) }
	checkHazard(t, twoLaunches(kasm.MustFinalize(b), hzConsume(hzB), copyAB), liveBit)
}

// TestReachChangedLaunch: the fault corrupts A[10], and host code, reading
// it, launches a kernel that stores nothing where the golden run launched
// one that fills B. B keeps its setup values, and no store of the faulty
// run shows it; the golden launch's recorded writes put B in D′, so the
// last launch, which reads only B, runs.
func TestReachChangedLaunch(t *testing.T) {
	b := hzPrologue("product")
	b.IMulI(rProd, rVal, 3)
	b.Gst(rIdx, hzA, rProd)
	produce := kasm.MustFinalize(b)
	b = hzPrologue("fillB")
	b.MovI(rOut, 7)
	b.Gst(rIdx, hzB, rOut)
	fill := kasm.MustFinalize(b)
	idle := kasm.MustFinalize(hzPrologue("idle"))
	consume := hzConsume(hzB)
	checkHazard(t, func(rt Runner, g []uint32) error {
		if err := hzLaunch(rt, g, produce); err != nil {
			return err
		}
		next := fill
		if g[hzA+10] >= 1<<16 {
			next = idle
		}
		if err := hzLaunch(rt, g, next); err != nil {
			return err
		}
		return hzLaunch(rt, g, consume)
	}, 1<<20)
}

// TestReachFailedLaunch: a flip of the zero product's bit 20 sends thread
// 10's store out of the arena, so the first launch fails in its first
// warp and its second warp never runs. Host code carries on. A[32:64]
// keep their setup values; the failed launch's recorded writes from the
// failing unit on put them in D′, so the second launch's second warp,
// which loads them, runs.
func TestReachFailedLaunch(t *testing.T) {
	b := hzPrologue("stray")
	b.IMulI(rProd, rVal, 0)
	b.IAdd(rOut, rIdx, rProd)
	b.Gst(rOut, hzA, rVal)
	produce, consume := kasm.MustFinalize(b), hzConsume(hzA)
	checkHazard(t, func(rt Runner, g []uint32) error {
		err := hzLaunch(rt, g, produce)
		return errors.Join(err, hzLaunch(rt, g, consume))
	}, 1<<20)
}

// hostChecker is a Runner that panics when host code changes an arena word
// between two launches without declaring it through HostStore or HostCopy
// — the Runner rule the Player's replay filter relies on. It passes the
// declarations on to the Runner it wraps. Every workload of this package's
// tests that writes the arena between launches runs under it.
type hostChecker struct {
	rt       Runner
	g, prev  []uint32 // the arena, and its image after the last launch
	declared []bool
	launches int
}

func checkHost(rt Runner) Runner { return &hostChecker{rt: rt} }

func (h *hostChecker) Arena(words int) []uint32 {
	h.g, h.declared = h.rt.Arena(words), make([]bool, words)
	return h.g
}

func (h *hostChecker) HostWrote(dst, src, n int) {
	for i := range n {
		h.declared[dst+i] = true
	}
	if hw, ok := h.rt.(HostWriter); ok {
		hw.HostWrote(dst, src, n)
	}
}

func (h *hostChecker) Launch(l *emu.Launch) error {
	if !bytes.Equal(asBytes(h.prev), asBytes(h.g)) {
		for i, v := range h.prev {
			if v != h.g[i] && !h.declared[i] {
				panic(fmt.Sprintf("host code changed arena word %d before launch %d without declaring it", i, h.launches))
			}
		}
	}
	err := h.rt.Launch(l)
	h.launches++
	h.prev = append(h.prev[:0], h.g...)
	clear(h.declared)
	return err
}

// asBytes views words as bytes, so that bytes.Equal compares them at
// memory speed.
func asBytes(words []uint32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 4*len(words))
}
