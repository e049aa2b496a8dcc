package replay

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"gpufi/internal/emu"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// The test workload: three launches of one "stage" kernel chained through
// the arena, A -> B -> C -> OUT, 64 threads each (2 blocks x 32). Thread i
// of a stage computes
//
//	p      = src[i] * 3          (IMUL — the only countable instruction)
//	dst[i] = (p & 0xFFFF) + param
//
// so a flip of a high bit of p is masked inside the launch and a flip of
// a low bit propagates to the output. Stage 0 additionally parks the raw
// product in a scratch region no later launch reads. With hostWrites the
// host rewrites param before every launch.
const (
	stGrid, stBlock = 2, 32
	stN             = stGrid * stBlock

	offA       = 0
	offB       = offA + stN
	offC       = offB + stN
	offOut     = offC + stN
	offScratch = offOut + stN
	offParam   = offScratch + stN
	stWords    = offParam + 1

	maskedBit = 1 << 20 // cleared by the stage's AND
	liveBit   = 1       // reaches dst
)

const (
	rTid = isa.Reg(iota + 1)
	rCta
	rNtid
	rIdx
	rVal
	rProd
	rOut
	rParam
)

func stage(src, dst, scratch int32) *kasm.Program {
	b := kasm.New("stage")
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNtid, isa.SRNtid)
	b.IMad(rIdx, rCta, rNtid, rTid)
	b.Gld(rVal, rIdx, src)
	b.IMulI(rProd, rVal, 3)
	b.AndI(rOut, rProd, 0xFFFF)
	b.Gld(rParam, isa.RZ, offParam)
	b.IAdd(rOut, rOut, rParam)
	b.Gst(rIdx, dst, rOut)
	if scratch >= 0 {
		b.Gst(rIdx, scratch, rProd)
	}
	return kasm.MustFinalize(b)
}

var stages = []*kasm.Program{
	stage(offA, offB, offScratch),
	stage(offB, offC, -1),
	stage(offC, offOut, -1),
}

// stageSrc is the arena offset stage k reads.
var stageSrc = []int{offA, offB, offC}

func countIMUL(op isa.Opcode) bool { return op == isa.OpIMUL }

// runStages executes the workload on rt and returns a copy of the final
// arena. host, when non-nil, is host code run after every launch: the
// tile-model shape of corruption applied between launches, or a host that
// reads the arena.
func runStages(rt Runner, hostWrites bool, host func(rt Runner, after int, g []uint32)) ([]uint32, error) {
	rt = checkHost(rt)
	g := rt.Arena(stWords)
	for i := 0; i < stN; i++ {
		g[offA+i] = uint32(i*1000 + 17)
	}
	g[offParam] = 1
	for k, prog := range stages {
		if hostWrites {
			HostStore(rt, g, offParam, uint32(k+1))
		}
		if err := rt.Launch(&emu.Launch{Prog: prog, Grid: stGrid, Block: stBlock, Global: g}); err != nil {
			return nil, err
		}
		if host != nil {
			host(rt, k, g)
		}
	}
	return slices.Clone(g), nil
}

// recordStages records the workload with a checkpoint every 100
// thread-instructions (several per launch) and checks the recording
// against a plain run.
func recordStages(t *testing.T, hostWrites bool, host func(rt Runner, after int, g []uint32)) (*Trace, []uint32) {
	t.Helper()
	plain := &Plain{}
	golden, err := runStages(plain, hostWrites, host)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(100, countIMUL)
	recOut, err := runStages(rec, hostWrites, host)
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Finish()
	if !slices.Equal(golden, recOut) {
		t.Fatal("recorded run diverged from the plain run")
	}
	if tr.Instrs != plain.Res.DynThreadInstrs || tr.Count != 3*stN || len(tr.Launches) != 3 {
		t.Fatalf("trace: %d instrs (plain %d), %d countable, %d launches",
			tr.Instrs, plain.Res.DynThreadInstrs, tr.Count, len(tr.Launches))
	}
	perLaunch := [3]int{}
	for _, ck := range tr.Ckpts {
		perLaunch[ck.Launch]++
	}
	for k, c := range perLaunch {
		if c < 2 {
			t.Fatalf("launch %d holds %d checkpoints, want several", k, c)
		}
	}
	return tr, golden
}

// flip is a one-shot injector in the shape of swfi's: it counts countable
// thread-instructions — IMULs unless count says otherwise — and XORs mask
// into the output of the target-th. mask 0 fires without corrupting
// anything.
type flip struct {
	target  uint64
	mask    uint32
	count   func(isa.Opcode) bool
	counter uint64
	fired   bool
	old     uint32
}

func (f *flip) post(ev *emu.Event) {
	if f.fired {
		ev.Disarm()
		return
	}
	count := f.count
	if count == nil {
		count = countIMUL
	}
	if !count(ev.Instr.Op) {
		return
	}
	n := uint64(ev.ActiveCount())
	if f.counter+n <= f.target {
		f.counter += n
		return
	}
	lane := ev.NthActiveLane(int(f.target - f.counter))
	f.counter += n
	f.fired = true
	f.old, _ = ev.DstValue(lane)
	ev.CorruptDst(lane, f.old^f.mask)
	ev.Disarm()
}

func (f *flip) hooks() emu.Hooks { return emu.Hooks{Post: f.post} }

func (f *flip) player(tr *Trace, pool *Pool) *Player {
	return NewPlayer(tr, f.target, f.hooks(),
		func(done uint64) { f.counter = done }, func() bool { return f.fired }, pool)
}

// forkPoint is the latest checkpoint at or before the target (the zero
// Checkpoint when there is none).
func forkPoint(tr *Trace, target uint64) Checkpoint {
	var at Checkpoint
	for _, ck := range tr.Ckpts {
		if ck.CumCount <= target {
			at = ck
		}
	}
	return at
}

// unitOf returns the launch and unit that hold countable instruction
// target.
func unitOf(tr *Trace, target uint64) (k, u int) {
	for k := range tr.Launches {
		_, before := tr.cumBefore(k)
		for u, unit := range tr.Launches[k].Units {
			if before+unit.Count > target {
				return k, u
			}
		}
	}
	panic("target outside the trace")
}

// unitSpan returns the workload-cumulative thread-instruction counts at
// the start and the end of unit u of launch k.
func unitSpan(tr *Trace, k, u int) (start, end uint64) {
	start, _ = tr.cumBefore(k)
	units := tr.Launches[k].Units
	end = start + units[u].Instrs
	if u > 0 {
		start += units[u-1].Instrs
	}
	return start, end
}

// forkAt is where a countdown player for target starts simulating: the
// later of the checkpoint before it and the start of its unit.
func forkAt(tr *Trace, target uint64) uint64 {
	k, u := unitOf(tr, target)
	start, _ := unitSpan(tr, k, u)
	return max(start, forkPoint(tr, target).CumInstrs)
}

// laneSpan is what unit u of launch k simulates when lanes of its warp's
// 32 lanes run (0: the whole unit, warp or block): its golden count scaled
// by lanes/32, every lane of the test kernels counting alike.
func laneSpan(tr *Trace, k, u int, lanes uint64) uint64 {
	start, end := unitSpan(tr, k, u)
	if lanes == 0 {
		return end - start
	}
	return (end - start) * lanes / stBlock
}

// wantSkipped is what a countdown player for target skips when, besides
// the target's unit from the fork point on, exactly the units sim lists
// (launch, unit) run, each at its golden count — or, with lanes set, only
// that many of each one's lanes (lane replay).
func wantSkipped(tr *Trace, target uint64, sim [][2]int, lanes uint64) uint64 {
	k, u := unitOf(tr, target)
	_, end := unitSpan(tr, k, u)
	skipped := tr.Instrs - (end - forkAt(tr, target))
	for _, ku := range sim {
		skipped -= laneSpan(tr, ku[0], ku[1], lanes)
	}
	return skipped
}

// launchInstrs is the thread-instruction count of launch k alone.
func launchInstrs(tr *Trace, k int) uint64 {
	before, _ := tr.cumBefore(k)
	return tr.Launches[k].CumInstrs - before
}

func TestPlayerAtEveryCheckpointReproducesGolden(t *testing.T) {
	tr, golden := recordStages(t, true, nil)
	pool := &Pool{}
	for ck := -1; ck < len(tr.Ckpts); ck++ {
		p := NewPlayerAt(tr, ck, pool)
		got, err := runStages(p, true, nil)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", ck, err)
		}
		if !slices.Equal(got, golden) {
			t.Errorf("checkpoint %d: arena differs from golden", ck)
		}
		if sum := p.Live.DynThreadInstrs + p.Skipped; sum != tr.Instrs {
			t.Errorf("checkpoint %d: sim %d + skipped %d = %d, want %d",
				ck, p.Live.DynThreadInstrs, p.Skipped, sum, tr.Instrs)
		}
		var want uint64
		if ck >= 0 {
			want = tr.Ckpts[ck].CumInstrs
		}
		if p.Skipped != want {
			t.Errorf("checkpoint %d: skipped %d, want the checkpoint's %d", ck, p.Skipped, want)
		}
	}
}

// TestPlayerSimulatesNothingBeforeTheTargetBlock: launches before the
// target's replay from their writes, and so do the blocks of its launch
// before its block; the fork restores a checkpoint only when one lies
// inside that block; the countdown arms the hook on exactly the target;
// and — the fault corrupting nothing — every later block replays.
func TestPlayerSimulatesNothingBeforeTheTargetBlock(t *testing.T) {
	checkpointed, golden := recordStages(t, true, nil)
	rec := NewRecorder(1<<20, countIMUL)
	if _, err := runStages(rec, true, nil); err != nil {
		t.Fatal(err)
	}
	pool := &Pool{}
	var sawCheckpoint, sawBlockStart bool
	for _, tr := range []*Trace{checkpointed, rec.Finish()} {
		for _, target := range []uint64{0, 5, 40, stN + 40, 2*stN + 63} {
			f := &flip{target: target}
			p := f.player(tr, pool)
			got, err := runStages(p, true, nil)
			if err != nil {
				t.Fatalf("target %d: %v", target, err)
			}
			k, b := unitOf(tr, target)
			skipped := wantSkipped(tr, target, nil, 0)
			if p.Skipped != skipped || p.Live.DynThreadInstrs != tr.Instrs-skipped {
				t.Errorf("target %d: sim %d skipped %d, want %d and %d",
					target, p.Live.DynThreadInstrs, p.Skipped, tr.Instrs-skipped, skipped)
			}
			start, _ := unitSpan(tr, k, b)
			sawCheckpoint = sawCheckpoint || forkAt(tr, target) > start
			sawBlockStart = sawBlockStart || forkAt(tr, target) == start && start > 0
			i := int(target) % stN
			if want := 3 * golden[stageSrc[k]+i]; !f.fired || f.old != want {
				t.Errorf("target %d: fired=%v on value %d, want thread %d of launch %d (%d)",
					target, f.fired, f.old, i, k, want)
			}
			if !slices.Equal(got, golden) {
				t.Errorf("target %d: a fault that corrupts nothing changed the arena", target)
			}
		}
	}
	if !sawCheckpoint || !sawBlockStart {
		t.Errorf("forks from a checkpoint %v, from a block start %v; want both", sawCheckpoint, sawBlockStart)
	}
}

// paramFromC is an impure host: after launch 1 it reads a word of C and
// picks launch 2's parameter from it.
func paramFromC(rt Runner, after int, g []uint32) {
	if after == 1 {
		HostStore(rt, g, offParam, 1+g[offC+10]&1)
	}
}

// TestPostFaultTail drives unit replay after the fault: which blocks of
// the faulting and the later launches still run, and that replaying the
// others never changes what a plain run with the same fault computes. Each
// row is named for its scenario; sim lists the blocks after the target's
// that run because a word they load changed, and lanes how many of their
// lanes run (0: all). The stage kernel is lane-safe, so a block whose only
// changed input is thread 10's word runs thread 10 alone.
func TestPostFaultTail(t *testing.T) {
	cases := []struct {
		name       string
		hostWrites bool
		host       func(rt Runner, after int, g []uint32)
		target     uint64
		mask       uint32
		sim        [][2]int // (launch, block)
		lanes      uint64
		sdc        bool
	}{
		{name: "pure host: fault masked inside launch 1 converges at the next boundary",
			hostWrites: true, target: stN + 10, mask: maskedBit},
		{name: "pure host: propagating fault never converges",
			hostWrites: true, target: stN + 10, mask: liveBit, sim: [][2]int{{2, 0}}, lanes: 1, sdc: true},
		{name: "pure host: garbage parked in scratch blocks the whole-arena comparison",
			target: 10, mask: maskedBit},
		{name: "live-in pruning ignores the parked garbage",
			hostWrites: true, target: 10, mask: maskedBit},
		{name: "live-in pruning still sees a word the next launch reads",
			target: 10, mask: liveBit, sim: [][2]int{{1, 0}, {2, 0}}, lanes: 1, sdc: true},
		{name: "impure host: no post-fault launch is skipped",
			host: paramFromC, target: stN + 10, mask: maskedBit},
		// Every thread loads the parameter, so both blocks run whole.
		{name: "impure host: a parameter read from a corrupted word runs the next launch",
			host: paramFromC, target: stN + 10, mask: liveBit, sim: [][2]int{{2, 0}, {2, 1}}, sdc: true},
	}
	pool := &Pool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, golden := recordStages(t, tc.hostWrites, tc.host)
			ref := &flip{target: tc.target, mask: tc.mask}
			plain := &Plain{Hooks: ref.hooks()}
			want, err := runStages(plain, tc.hostWrites, tc.host)
			if err != nil {
				t.Fatal(err)
			}

			f := &flip{target: tc.target, mask: tc.mask}
			p := f.player(tr, pool)
			got, err := runStages(p, tc.hostWrites, tc.host)
			if err != nil {
				t.Fatal(err)
			}

			wantSkip := wantSkipped(tr, tc.target, tc.sim, tc.lanes)
			if p.Skipped != wantSkip || p.Live.DynThreadInstrs != tr.Instrs-wantSkip {
				t.Errorf("sim %d skipped %d, want %d and %d",
					p.Live.DynThreadInstrs, p.Skipped, tr.Instrs-wantSkip, wantSkip)
			}
			if sum := p.Live.DynThreadInstrs + p.Skipped; sum != plain.Res.DynThreadInstrs {
				t.Errorf("sim + skipped = %d, the full replay executes %d", sum, plain.Res.DynThreadInstrs)
			}
			if f.old != ref.old {
				t.Errorf("player corrupted value %d, plain run %d", f.old, ref.old)
			}
			if !slices.Equal(got, want) {
				t.Error("arena differs from the plain faulty run")
			}
			if sdc := !slices.Equal(want[offOut:offOut+stN], golden[offOut:offOut+stN]); sdc != tc.sdc {
				t.Fatalf("plain run SDC = %v, the case assumes %v", sdc, tc.sdc)
			}
		})
	}
}

func TestPlayerSkipToReplaysPrefixFromWriteSets(t *testing.T) {
	tr, golden := recordStages(t, true, nil)
	pool := &Pool{}
	// Without corruption the blocks after the prefix replay too.
	for last := 0; last <= 3; last++ {
		p := NewPlayerSkipTo(tr, last, pool)
		got, err := runStages(p, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p.Skipped != tr.Instrs || p.Live.DynThreadInstrs != 0 {
			t.Errorf("skip to %d: sim %d skipped %d, want 0 and %d", last, p.Live.DynThreadInstrs, p.Skipped, tr.Instrs)
		}
		if !slices.Equal(got, golden) {
			t.Errorf("skip to %d: arena differs from golden", last)
		}
	}

	// Host corruption right after the skipped prefix, as the tile model
	// applies it: the tail must compute what a plain run computes, running
	// exactly the threads that load a corrupted word — one per block here.
	for _, tc := range []struct {
		last, word int
		sim        [][2]int // (launch, block), each running one lane
	}{
		{0, offB + 3, [][2]int{{1, 0}, {2, 0}}},
		{1, offC + 40, [][2]int{{2, 1}}},
		{0, offScratch + 7, nil}, // parked where no later block loads
		{2, offOut + 5, nil},
	} {
		corrupt := func(rt Runner, after int, g []uint32) {
			if after == tc.last {
				HostStore(rt, g, tc.word, g[tc.word]^liveBit)
			}
		}
		plain := &Plain{}
		want, err := runStages(plain, true, corrupt)
		if err != nil {
			t.Fatal(err)
		}
		p := NewPlayerSkipTo(tr, tc.last, pool)
		got, err := runStages(p, true, corrupt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) || slices.Equal(got, golden) {
			t.Errorf("corrupt word %d after launch %d: tail differs from the plain run (or the corruption vanished)", tc.word, tc.last)
		}
		var sim uint64
		for _, kb := range tc.sim {
			sim += laneSpan(tr, kb[0], kb[1], 1)
		}
		if p.Live.DynThreadInstrs != sim || p.Live.DynThreadInstrs+p.Skipped != plain.Res.DynThreadInstrs {
			t.Errorf("corrupt word %d after launch %d: sim %d skipped %d, want %d simulated of %d",
				tc.word, tc.last, p.Live.DynThreadInstrs, p.Skipped, sim, plain.Res.DynThreadInstrs)
		}
	}
}

// The watchdog workload: launch 0 writes one zero flag per block of
// launch 1 (flag[i] = A[i] * 0, the countable IMUL), launch 1 runs four
// blocks that each spin while their flag is non-zero. A fault that sets
// flag[3] hangs the last block after the first three spent part of the
// launch's budget.
const (
	wdBlocks = 4
	wdBudget = 2000
	wdFlag   = 32
	wdOut    = wdFlag + 32
	wdWords  = wdOut + wdBlocks*32
)

func wdPrograms() (flags, spin *kasm.Program) {
	b := kasm.New("flags")
	b.S2R(rTid, isa.SRTid)
	b.Gld(rVal, rTid, 0)
	b.IMulI(rProd, rVal, 0)
	b.Gst(rTid, wdFlag, rProd)
	flags = kasm.MustFinalize(b)

	b = kasm.New("spin")
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNtid, isa.SRNtid)
	b.IMad(rIdx, rCta, rNtid, rTid)
	b.Loop(func() {
		b.Gld(rVal, rCta, wdFlag)
	}, func() isa.Pred {
		b.ISetPI(isa.P(0), isa.CmpNE, rVal, 0)
		return isa.P(0)
	})
	b.Gst(rIdx, wdOut, rNtid)
	spin = kasm.MustFinalize(b)
	return flags, spin
}

func runSpin(rt Runner) error {
	flags, spin := wdPrograms()
	g := rt.Arena(wdWords)
	for i := 0; i < 32; i++ {
		g[i] = uint32(i + 1)
	}
	if err := rt.Launch(&emu.Launch{Prog: flags, Grid: 1, Block: 32, Global: g}); err != nil {
		return err
	}
	return rt.Launch(&emu.Launch{Prog: spin, Grid: wdBlocks, Block: 32, Global: g, MaxDynInstrs: wdBudget})
}

// TestPostFaultLaunchHasOneWatchdogBudget: a hung post-fault launch is
// cut off by the launch-wide MaxDynInstrs, at the same instruction count
// whether the run is plain or fast-forwarded.
func TestPostFaultLaunchHasOneWatchdogBudget(t *testing.T) {
	rec := NewRecorder(50, countIMUL)
	if err := runSpin(rec); err != nil {
		t.Fatal(err)
	}
	tr := rec.Finish()

	const target = wdBlocks - 1 // lane 3 of launch 0's IMUL: flag[3]
	ref := &flip{target: target, mask: 1}
	plain := &Plain{Hooks: ref.hooks()}
	perr := runSpin(plain)
	f := &flip{target: target, mask: 1}
	p := f.player(tr, nil)
	err := runSpin(p)

	if !errors.Is(perr, emu.ErrWatchdog) || !errors.Is(err, emu.ErrWatchdog) {
		t.Fatalf("plain %v, player %v; want ErrWatchdog from both", perr, err)
	}
	var ple, le *emu.LaunchError
	if errors.As(perr, &ple) && errors.As(err, &le) && *ple != *le {
		t.Errorf("plain stopped at %v, player at %v", ple, le)
	}
	total := p.Live.DynThreadInstrs + p.Skipped
	if total != plain.Res.DynThreadInstrs {
		t.Errorf("player stopped after %d thread-instructions, plain run after %d",
			total, plain.Res.DynThreadInstrs)
	}
	if spent := total - launchInstrs(tr, 0); spent <= wdBudget || spent > wdBudget+emu.WarpSize {
		t.Errorf("hung launch ran %d thread-instructions on a budget of %d", spent, wdBudget)
	}
}

// The block-table workloads: one launch of btN threads — btGrid blocks of
// one warp, or one block of btGrid warps — over an arena of a seed row, an
// output region and an input region. Each kernel runs exactly one IMUL per
// thread, the countable instruction, so target t is thread t of warp
// t/stBlock.
const (
	btGrid  = 4
	btN     = btGrid * stBlock
	btSeed  = 0
	btOut   = btSeed + stBlock
	btIn    = btOut + btN
	btWords = btIn + btN
)

const (
	rAddr = rParam + 1 + iota
	rPrev
	rCnt
	rI
)

// btKernel builds a kernel from the index preamble and body.
func btKernel(name string, body func(b *kasm.Builder)) *kasm.Program {
	b := kasm.New(name)
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNtid, isa.SRNtid)
	b.IMad(rIdx, rCta, rNtid, rTid)
	body(b)
	return kasm.MustFinalize(b)
}

var (
	// out[i] = in[i]*3, and in[i] stored back unchanged: every block
	// writes words the launch reads, but no block reads another's words.
	btIndependent = btKernel("independent", func(b *kasm.Builder) {
		b.Gld(rVal, rIdx, btIn)
		b.IMulI(rProd, rVal, 3)
		b.Gst(rIdx, btOut, rProd)
		b.Gst(rIdx, btIn, rVal)
	})
	// out[i] = in[i]*3 + out[i-stBlock]: block j reads block j-1's output
	// (block 0 the seed row), as if blocks ran in order.
	btChained = btKernel("chained", func(b *kasm.Builder) {
		b.Gld(rVal, rIdx, btIn)
		b.IMulI(rProd, rVal, 3)
		b.Gld(rPrev, rIdx, btOut-stBlock)
		b.IAdd(rOut, rProd, rPrev)
		b.Gst(rIdx, btOut, rOut)
	})
	// btIndependent with a barrier before the store: never barrier-free.
	btBarrier = btKernel("barrier", func(b *kasm.Builder) {
		b.Gld(rVal, rIdx, btIn)
		b.IMulI(rProd, rVal, 3)
		b.Bar()
		b.Gst(rIdx, btOut, rProd)
	})
	// btIndependent with the product passed through shared memory: never
	// barrier-free.
	btShared = btKernel("shared", func(b *kasm.Builder) {
		b.Gld(rVal, rIdx, btIn)
		b.IMulI(rProd, rVal, 3)
		b.Sst(rTid, 0, rProd)
		b.Sld(rOut, rTid, 0)
		b.Gst(rIdx, btOut, rOut)
	})
	// out[i*1] = in[i]+1: the IMUL computes the store address.
	btAddressed = btKernel("addressed", func(b *kasm.Builder) {
		b.IMulI(rAddr, rIdx, 1)
		b.Gld(rVal, rIdx, btIn)
		b.IAddI(rVal, rVal, 1)
		b.Gst(rAddr, btOut, rVal)
	})
	// Thread i counts to in[i]*1 one step per iteration.
	btCounting = btKernel("counting", func(b *kasm.Builder) {
		b.Gld(rVal, rIdx, btIn)
		b.IMulI(rCnt, rVal, 1)
		b.MovI(rI, 0)
		b.Loop(func() {
			b.IAddI(rI, rI, 1)
		}, func() isa.Pred {
			b.ISetP(isa.P(0), isa.CmpLT, rI, rCnt)
			return isa.P(0)
		})
		b.Gst(rIdx, btOut, rI)
	})

	// out[i] = in[i]*3 + out[i-32] + out[(i^1)-32]: every word a warp
	// stores, two lanes of the next warp load (the seed row's, warp 0).
	btPairs = btKernel("pairs", func(b *kasm.Builder) {
		b.Gld(rVal, rIdx, btIn)
		b.IMulI(rProd, rVal, 3)
		b.Gld(rPrev, rIdx, btOut-stBlock)
		b.XorI(rAddr, rIdx, 1)
		b.Gld(rCnt, rAddr, btOut-stBlock)
		b.IAdd(rOut, rProd, rPrev)
		b.IAdd(rOut, rOut, rCnt)
		b.Gst(rIdx, btOut, rOut)
	})
	// out[i] = in[i]*0, and in[i] stored back to in[i ^ out[i-32]] (warp 0
	// has no predecessor): a corrupted word of the previous warp redirects
	// the store into another lane's input and output, or out of the arena.
	btRedirect = btKernel("redirect", func(b *kasm.Builder) {
		b.Gld(rVal, rIdx, btIn)
		b.IMulI(rProd, rVal, 0)
		b.Gst(rIdx, btOut, rProd)
		b.MovI(rPrev, 0)
		b.ISetPI(isa.P(0), isa.CmpGE, rIdx, stBlock)
		b.If(isa.P(0), func() {
			b.Gld(rPrev, rIdx, btOut-stBlock)
		})
		b.Xor(rAddr, rIdx, rPrev)
		b.Gst(rAddr, btIn, rVal)
	})
	// btChained with a branch on the word it loads: never lane-safe.
	btBranchy = btKernel("branchy", func(b *kasm.Builder) {
		b.Gld(rVal, rIdx, btIn)
		b.IMulI(rProd, rVal, 3)
		b.Gld(rPrev, rIdx, btOut-stBlock)
		b.ISetPI(isa.P(0), isa.CmpGT, rPrev, 1<<16)
		b.If(isa.P(0), func() {
			b.IAddI(rProd, rProd, 1)
		})
		b.IAdd(rOut, rProd, rPrev)
		b.Gst(rIdx, btOut, rOut)
	})
	// btChained whose lanes then copy their neighbour's output into their
	// input: lane 1 loads what lane 0 stored.
	btNeighbour = btKernel("neighbour", func(b *kasm.Builder) {
		b.Gld(rVal, rIdx, btIn)
		b.IMulI(rProd, rVal, 3)
		b.Gld(rPrev, rIdx, btOut-stBlock)
		b.IAdd(rOut, rProd, rPrev)
		b.Gst(rIdx, btOut, rOut)
		b.XorI(rAddr, rIdx, 1)
		b.Gld(rCnt, rAddr, btOut)
		b.Gst(rIdx, btIn, rCnt)
	})
)

// runBlockTable runs prog on grid blocks of btN/grid threads.
func runBlockTable(rt Runner, prog *kasm.Program, grid int, budget uint64) ([]uint32, error) {
	g := rt.Arena(btWords)
	for i := 0; i < stBlock; i++ {
		g[btSeed+i] = uint32(7 * i)
	}
	for i := 0; i < btN; i++ {
		g[btIn+i] = uint32(1 + i%3)
	}
	l := &emu.Launch{Prog: prog, Grid: grid, Block: btN / grid, Global: g, SharedWords: btN / grid, MaxDynInstrs: budget}
	if err := rt.Launch(l); err != nil {
		return nil, err
	}
	return slices.Clone(g), nil
}

// TestBlockReplayMatchesPlain: for every target of each block-table
// workload, a fast-forwarded run reaches the outcome, arena and sim +
// skipped total of a plain run with the same fault, and of the units after
// the faulted one runs exactly those whose inputs the fault changed — in
// a lane-safe kernel only the lanes that loaded a changed word — or whose
// replay would cross the watchdog budget. The rows on one block of four
// warps pin the unit: a warp in a barrier-free launch, the whole block in
// a launch with a barrier or shared memory.
func TestBlockReplayMatchesPlain(t *testing.T) {
	lastOnly := func(u int) []int {
		if u < btGrid-1 {
			return []int{btGrid - 1}
		}
		return nil
	}
	allLater := func(u int) []int {
		var later []int
		for j := u + 1; j < btGrid; j++ {
			later = append(later, j)
		}
		return later
	}
	cases := []struct {
		name  string
		prog  *kasm.Program
		grid  int // btGrid one-warp blocks, or 1 block of btGrid warps
		mask  uint32
		every uint64            // checkpoint spacing; past the launch, every fork is at a unit start
		slack uint64            // watchdog budget over the golden count; 0: the default
		sim   func(u int) []int // the units after the faulted unit u that run
		lanes uint64            // how many lanes of each of them run; 0: all
		err   error
	}{
		{name: "(a) independent blocks: the remainder is skipped",
			prog: btIndependent, grid: btGrid, mask: liveBit, every: 1 << 20},
		// Lane replay: of each later block, the one thread that loads the
		// changed word runs.
		{name: "(b) a later block reads the faulted block's output",
			prog: btChained, grid: btGrid, mask: liveBit, every: 100, sim: allLater, lanes: 1},
		// Index bit 5 clear: the store lands in the next block's input.
		{name: "(c) the fault redirects a store into the input region",
			prog: btAddressed, grid: btGrid, mask: 5 << 5, every: 100, lanes: 1, sim: func(u int) []int {
				if u%2 == 0 {
					return []int{u + 1}
				}
				return nil
			}},
		// The faulted block's extra iterations leave room to replay every
		// later block but the last, which hangs.
		{name: "(d) the faulted block's extra work would trip the watchdog in the remainder",
			prog: btCounting, grid: btGrid, mask: 1 << 6, every: 100, slack: 64, sim: lastOnly, err: emu.ErrWatchdog},
		{name: "(e) every target forks inside its own block, the last block's included",
			prog: btIndependent, grid: btGrid, mask: liveBit, every: 1},
		{name: "(f) warp units: a fault in one warp of a barrier-free block simulates only that warp",
			prog: btIndependent, grid: 1, mask: liveBit, every: 1 << 20},
		{name: "(g) warp units: every target forks inside its own warp",
			prog: btIndependent, grid: 1, mask: liveBit, every: 1},
		{name: "(h) warp units: a later warp that loads what the faulted warp stored runs",
			prog: btChained, grid: 1, mask: liveBit, every: 100, sim: allLater, lanes: 1},
		{name: "(i) warp units: a redirected store runs only the warp it lands in",
			prog: btAddressed, grid: 1, mask: 5 << 5, every: 100, lanes: 1, sim: func(u int) []int {
				if u%2 == 0 {
					return []int{u + 1}
				}
				return nil
			}},
		{name: "(j) warp units: a hang in a warp that would replay trips the watchdog at the same count",
			prog: btCounting, grid: 1, mask: 1 << 6, every: 100, slack: 64, sim: lastOnly, err: emu.ErrWatchdog},
		{name: "(k) a barrier keeps the block the unit",
			prog: btBarrier, grid: 1, mask: liveBit, every: 100},
		{name: "(l) shared memory keeps the block the unit",
			prog: btShared, grid: 1, mask: liveBit, every: 100},
	}
	pool := &Pool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := &Plain{}
			if _, err := runBlockTable(plain, tc.prog, tc.grid, 0); err != nil {
				t.Fatal(err)
			}
			var budget uint64
			if tc.slack > 0 {
				budget = plain.Res.DynThreadInstrs + tc.slack
			}
			rec := NewRecorder(tc.every, countIMUL)
			if _, err := runBlockTable(rec, tc.prog, tc.grid, budget); err != nil {
				t.Fatal(err)
			}
			tr := rec.Finish()
			units := tr.Launches[0].Units
			wantUnits := btGrid // a warp each
			if tc.prog == btBarrier || tc.prog == btShared {
				wantUnits = tc.grid
			}
			if tr.Count != btN || len(units) != wantUnits {
				t.Fatalf("trace: %d countable, %d units, want %d", tr.Count, len(units), wantUnits)
			}
			per := btN / stBlock / len(units) // warps per unit
			sawReplay := false
			for target := uint64(0); target < btN; target++ {
				ref := &flip{target: target, mask: tc.mask}
				rp := &Plain{Hooks: ref.hooks()}
				want, werr := runBlockTable(rp, tc.prog, tc.grid, budget)
				f := &flip{target: target, mask: tc.mask}
				p := f.player(tr, pool)
				got, err := runBlockTable(p, tc.prog, tc.grid, budget)

				if !errors.Is(werr, tc.err) {
					t.Fatalf("target %d: plain run ended with %v, the case assumes %v", target, werr, tc.err)
				}
				var wle, le *emu.LaunchError
				if errors.As(werr, &wle) != errors.As(err, &le) || wle != nil && *wle != *le {
					t.Errorf("target %d: player ended with %v, plain run with %v", target, err, werr)
				}
				if !slices.Equal(got, want) {
					t.Errorf("target %d: arena differs from the plain faulty run", target)
				}
				if f.old != ref.old || !f.fired {
					t.Errorf("target %d: player corrupted %d (fired %v), plain run %d", target, f.old, f.fired, ref.old)
				}
				if sum := p.Live.DynThreadInstrs + p.Skipped; sum != rp.Res.DynThreadInstrs {
					t.Errorf("target %d: sim + skipped = %d, the full replay executes %d", target, sum, rp.Res.DynThreadInstrs)
				}
				u := int(target) / stBlock / per
				var sim [][2]int
				if tc.sim != nil {
					for _, j := range tc.sim(u) {
						sim = append(sim, [2]int{0, j})
					}
				}
				// The simulated units run at their golden count, except a
				// hung one, which runs to the budget.
				skipped := wantSkipped(tr, target, sim, tc.lanes)
				if tc.err != nil {
					skipped = forkAt(tr, target)
					for j := u + 1; j < len(units)-1; j++ {
						start, end := unitSpan(tr, 0, j)
						skipped += end - start
					}
				}
				if p.Skipped != skipped {
					t.Errorf("target %d: skipped %d, want %d", target, p.Skipped, skipped)
				}
				sawReplay = sawReplay || len(sim) < len(units)-1-u
				if ck := forkPoint(tr, target); tc.every == 1 && (u > 0 && ck.CumInstrs <= units[u-1].Instrs || ck.CumInstrs == 0) {
					t.Errorf("target %d: forked at instruction %d, outside its unit %d", target, ck.CumInstrs, u)
				}
			}
			if tc.sim == nil && len(units) > 1 && !sawReplay {
				t.Error("no target left a later unit to replay")
			}
		})
	}
}

// TestLaneReplayMatchesPlain: lane replay on the block-table workload, one
// block of four warps (or four blocks of one). For every target a
// fast-forwarded run equals a plain run with the same fault — arena, error
// and sim + skipped — and simulates exactly the target's warp from the fork
// point plus, of the units sim lists, lanes lanes each (0: the whole warp);
// a run that fails simulates nothing it could replay before the failing
// warp. Each row pins which attempts happen over its targets: kept, rolled
// back on a memory conflict, rolled back on an error — or none, in a warp
// recorded without its lanes.
func TestLaneReplayMatchesPlain(t *testing.T) {
	allLater := func(u int) []int {
		var later []int
		for j := u + 1; j < btGrid; j++ {
			later = append(later, j)
		}
		return later
	}
	next := func(u int) []int {
		if u+1 < btGrid {
			return []int{u + 1}
		}
		return nil
	}
	cases := []struct {
		name  string
		prog  *kasm.Program
		grid  int
		mask  uint32
		split bool              // units record their lanes
		sim   func(u int) []int // the units after the faulted unit u that run
		lanes uint64            // how many lanes of each of them run; 0: all
		want  [3]bool           // some attempt is kept, rolled back on a conflict, on an error
	}{
		{name: "a corrupted word runs exactly the two lanes of each later warp that load it",
			prog: btPairs, grid: 1, mask: liveBit, split: true, sim: allLater, lanes: 2, want: [3]bool{true, false, false}},
		{name: "the same in blocks of one warp",
			prog: btPairs, grid: btGrid, mask: liveBit, split: true, sim: allLater, lanes: 2, want: [3]bool{true, false, false}},
		{name: "a lane whose store lands in another lane's input and output rolls back and runs the warp whole",
			prog: btRedirect, grid: 1, mask: liveBit, split: true, sim: next, want: [3]bool{false, true, false}},
		{name: "a lane that stores out of the arena rolls back and fails where the plain run does",
			prog: btRedirect, grid: 1, mask: 1 << 20, split: true, sim: next, want: [3]bool{false, false, true}},
		{name: "a branch on a loaded word keeps warp units",
			prog: btBranchy, grid: 1, mask: 1 << 20, sim: allLater},
		{name: "a lane that loads what another lane stored keeps warp units",
			prog: btNeighbour, grid: 1, mask: liveBit, sim: allLater},
	}
	pool := &Pool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := NewRecorder(100, countIMUL)
			if _, err := runBlockTable(rec, tc.prog, tc.grid, 0); err != nil {
				t.Fatal(err)
			}
			tr := rec.Finish()
			if units := tr.Launches[0].Units; len(units) != btGrid {
				t.Fatalf("%d units, want a warp each", len(units))
			}
			for u, ur := range tr.Launches[0].Units {
				if split := ur.In.Lanes != nil; split != tc.split || split && len(ur.Owner) != len(ur.Writes) {
					t.Fatalf("unit %d recorded lanes %v (%d owners of %d writes), want %v", u, split, len(ur.Owner), len(ur.Writes), tc.split)
				}
			}
			var seen [3]uint64
			for target := uint64(0); target < btN; target++ {
				ref := &flip{target: target, mask: tc.mask}
				rp := &Plain{Hooks: ref.hooks()}
				want, werr := runBlockTable(rp, tc.prog, tc.grid, 0)
				f := &flip{target: target, mask: tc.mask}
				p := f.player(tr, pool)
				got, err := runBlockTable(p, tc.prog, tc.grid, 0)
				what := fmt.Sprintf("target %d", target)
				samePlayerRun(t, what, want, got, werr, err, rp.Res.DynThreadInstrs, p)

				skipped := forkAt(tr, target)
				if werr == nil {
					var sim [][2]int
					for _, j := range tc.sim(int(target) / stBlock) {
						sim = append(sim, [2]int{0, j})
					}
					skipped = wantSkipped(tr, target, sim, tc.lanes)
				}
				if p.Skipped != skipped || p.Live.DynThreadInstrs != rp.Res.DynThreadInstrs-skipped {
					t.Errorf("%s: sim %d skipped %d, want %d and %d", what,
						p.Live.DynThreadInstrs, p.Skipped, rp.Res.DynThreadInstrs-skipped, skipped)
				}
				seen[0] += p.Attempts.Accepted
				seen[1] += p.Attempts.Conflicts
				seen[2] += p.Attempts.Errors
			}
			for i, w := range tc.want {
				if (seen[i] > 0) != w {
					t.Errorf("attempts kept, in conflict, failed: %v, want some where %v", seen, tc.want)
				}
			}
		})
	}
}
