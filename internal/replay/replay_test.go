package replay

import (
	"errors"
	"slices"
	"sort"
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
// host rewrites param before every launch — a pure host write, so the
// trace carries non-empty Host write-sets.
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
// arena. corrupt, when non-nil, is host code run after every launch (the
// tile-model shape: corruption applied between launches).
func runStages(rt Runner, hostWrites bool, corrupt func(after int, g []uint32)) ([]uint32, error) {
	g := rt.Arena(stWords)
	for i := 0; i < stN; i++ {
		g[offA+i] = uint32(i*1000 + 17)
	}
	g[offParam] = 1
	for k, prog := range stages {
		if hostWrites {
			g[offParam] = uint32(k + 1)
		}
		if err := rt.Launch(&emu.Launch{Prog: prog, Grid: stGrid, Block: stBlock, Global: g}); err != nil {
			return nil, err
		}
		if corrupt != nil {
			corrupt(k, g)
		}
	}
	return slices.Clone(g), nil
}

// recordStages records the workload with a checkpoint every 100
// thread-instructions (several per launch) and checks the recording
// against a plain run.
func recordStages(t *testing.T, hostWrites, hostPure bool) (*Trace, []uint32) {
	t.Helper()
	plain := &Plain{}
	golden, err := runStages(plain, hostWrites, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(100, countIMUL)
	recOut, err := runStages(rec, hostWrites, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Finish()
	tr.HostPure = hostPure
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
// thread-instructions and XORs mask into the output of the target-th.
// mask 0 fires without corrupting anything.
type flip struct {
	target  uint64
	mask    uint32
	counter uint64
	fired   bool
	old     uint32
}

func (f *flip) post(ev *emu.Event) {
	if f.fired {
		ev.Disarm()
		return
	}
	if !countIMUL(ev.Instr.Op) {
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

// forkPoint is the checkpoint NewPlayer must fork from: the latest one
// at or before the target (the zero Checkpoint when there is none).
func forkPoint(tr *Trace, target uint64) Checkpoint {
	var at Checkpoint
	for _, ck := range tr.Ckpts {
		if ck.CumCount <= target {
			at = ck
		}
	}
	return at
}

// launchInstrs is the thread-instruction count of launch k alone.
func launchInstrs(tr *Trace, k int) uint64 {
	before, _ := tr.cumBefore(k)
	return tr.Launches[k].CumInstrs - before
}

func TestPlayerAtEveryCheckpointReproducesGolden(t *testing.T) {
	tr, golden := recordStages(t, true, true)
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

// faultTail is the golden thread-instruction count of the blocks after the
// one holding countable instruction target, in target's launch: what
// ending the faulting launch at the faulted block skips. Every workload
// here runs one IMUL per thread and stBlock threads per block.
func faultTail(tr *Trace, target uint64) uint64 {
	k := sort.Search(len(tr.Launches), func(k int) bool { return tr.Launches[k].CumCount > target })
	_, before := tr.cumBefore(k)
	blocks := tr.Launches[k].Blocks
	return blocks[len(blocks)-1].Instrs - blocks[int(target-before)/stBlock].Instrs
}

// TestPlayerSimulatesNothingBeforeItsCheckpoint: launches that end before
// the fork point replay from write-sets, the fork launch restores its
// snapshot, the countdown arms the hook on exactly the target, and — the
// fault corrupting nothing — the faulting launch ends at the faulted block.
func TestPlayerSimulatesNothingBeforeItsCheckpoint(t *testing.T) {
	tr, golden := recordStages(t, true, false)
	pool := &Pool{}
	for _, target := range []uint64{0, 5, stN + 40, 2*stN + 63} {
		f := &flip{target: target}
		p := f.player(tr, pool)
		got, err := runStages(p, true, nil)
		if err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		ck := forkPoint(tr, target)
		skipped := ck.CumInstrs + faultTail(tr, target)
		if p.Skipped != skipped || p.Live.DynThreadInstrs != tr.Instrs-skipped {
			t.Errorf("target %d: sim %d skipped %d, want %d and %d (fork at launch %d)",
				target, p.Live.DynThreadInstrs, p.Skipped, tr.Instrs-skipped, skipped, ck.Launch)
		}
		k, i := int(target)/stN, int(target)%stN
		if want := 3 * golden[stageSrc[k]+i]; !f.fired || f.old != want {
			t.Errorf("target %d: fired=%v on value %d, want thread %d of launch %d (%d)",
				target, f.fired, f.old, i, k, want)
		}
		if !slices.Equal(got, golden) {
			t.Errorf("target %d: a fault that corrupts nothing changed the arena", target)
		}
	}
}

// TestPostFaultTail drives the launch-boundary reconvergence rules: which
// launches after the fault are skipped, and that skipping never changes
// what a plain run with the same fault computes.
func TestPostFaultTail(t *testing.T) {
	cases := []struct {
		name       string
		hostWrites bool
		hostPure   bool
		liveIn     bool
		target     uint64
		mask       uint32
		skipped    []int // post-fault launches replayed from write-sets
		sdc        bool
	}{
		{name: "pure host: fault masked inside launch 1 converges at the next boundary",
			hostWrites: true, hostPure: true, target: stN + 10, mask: maskedBit, skipped: []int{2}},
		{name: "pure host: propagating fault never converges",
			hostWrites: true, hostPure: true, target: stN + 10, mask: liveBit, sdc: true},
		{name: "pure host: garbage parked in scratch blocks the whole-arena comparison",
			hostPure: true, target: 10, mask: maskedBit},
		{name: "live-in pruning ignores the parked garbage",
			hostPure: true, liveIn: true, target: 10, mask: maskedBit, skipped: []int{1, 2}},
		{name: "live-in pruning still sees a word the next launch reads",
			hostPure: true, liveIn: true, target: 10, mask: liveBit, sdc: true},
		{name: "impure host: no post-fault launch is skipped",
			hostWrites: true, hostPure: false, target: stN + 10, mask: maskedBit},
	}
	pool := &Pool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, golden := recordStages(t, tc.hostWrites, tc.hostPure)
			if tc.liveIn {
				tr.ComputeLiveIn(offOut, stN)
			}
			ref := &flip{target: tc.target, mask: tc.mask}
			plain := &Plain{Hooks: ref.hooks()}
			want, err := runStages(plain, tc.hostWrites, nil)
			if err != nil {
				t.Fatal(err)
			}

			f := &flip{target: tc.target, mask: tc.mask}
			p := f.player(tr, pool)
			got, err := runStages(p, tc.hostWrites, nil)
			if err != nil {
				t.Fatal(err)
			}

			// No stage reads what it writes, so the faulting launch also
			// ends at the faulted block.
			wantSkipped := forkPoint(tr, tc.target).CumInstrs + faultTail(tr, tc.target)
			for _, k := range tc.skipped {
				wantSkipped += launchInstrs(tr, k)
			}
			if p.Skipped != wantSkipped || p.Live.DynThreadInstrs != tr.Instrs-wantSkipped {
				t.Errorf("sim %d skipped %d, want %d and %d",
					p.Live.DynThreadInstrs, p.Skipped, tr.Instrs-wantSkipped, wantSkipped)
			}
			if sum := p.Live.DynThreadInstrs + p.Skipped; sum != plain.Res.DynThreadInstrs {
				t.Errorf("sim + skipped = %d, the full replay executes %d", sum, plain.Res.DynThreadInstrs)
			}
			if p.converged != (len(tc.skipped) > 0) {
				t.Errorf("converged = %v", p.converged)
			}
			if !tc.hostPure && p.shadow != nil {
				t.Error("impure-host player keeps a golden shadow")
			}
			if f.old != ref.old {
				t.Errorf("player corrupted value %d, plain run %d", f.old, ref.old)
			}
			if out, wout := got[offOut:offOut+stN], want[offOut:offOut+stN]; !slices.Equal(out, wout) {
				t.Error("output region differs from the plain faulty run")
			}
			if sdc := !slices.Equal(want[offOut:offOut+stN], golden[offOut:offOut+stN]); sdc != tc.sdc {
				t.Fatalf("plain run SDC = %v, the case assumes %v", sdc, tc.sdc)
			}
			if tc.liveIn && p.converged {
				// The skip assumes the golden pre-state, so the arena —
				// parked garbage included — is reset to it.
				if !slices.Equal(got, golden) {
					t.Error("arena not reset to golden on a live-in match")
				}
				if want[offScratch+int(tc.target)] == golden[offScratch+int(tc.target)] {
					t.Fatal("the case assumes the plain run parks garbage in scratch")
				}
			} else if !slices.Equal(got, want) {
				t.Error("arena differs from the plain faulty run")
			}
		})
	}
}

func TestPlayerSkipToReplaysPrefixFromWriteSets(t *testing.T) {
	tr, golden := recordStages(t, true, false)
	pool := &Pool{}
	for last := 0; last <= 3; last++ {
		p := NewPlayerSkipTo(tr, last, pool)
		got, err := runStages(p, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := tr.Launches[min(last, 2)].CumInstrs
		if p.Skipped != want || p.Live.DynThreadInstrs != tr.Instrs-want {
			t.Errorf("skip to %d: sim %d skipped %d, want %d and %d",
				last, p.Live.DynThreadInstrs, p.Skipped, tr.Instrs-want, want)
		}
		if !slices.Equal(got, golden) {
			t.Errorf("skip to %d: arena differs from golden", last)
		}
	}

	// Host corruption right after the skipped prefix, as the tile model
	// applies it: the tail must compute what a plain run computes.
	pure, _ := recordStages(t, true, true)
	corrupt := func(after int, g []uint32) {
		if after == 0 {
			g[offB+3] ^= liveBit
		}
	}
	plain := &Plain{}
	want, err := runStages(plain, true, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlayerSkipTo(pure, 0, pool)
	got, err := runStages(p, true, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) || slices.Equal(got, golden) {
		t.Error("corrupted tail differs from the plain run (or the corruption vanished)")
	}
	if p.Skipped != launchInstrs(pure, 0) || p.Live.DynThreadInstrs+p.Skipped != plain.Res.DynThreadInstrs {
		t.Errorf("sim %d skipped %d, want launch 0 skipped (%d) and a total of %d",
			p.Live.DynThreadInstrs, p.Skipped, launchInstrs(pure, 0), plain.Res.DynThreadInstrs)
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
	for _, hostPure := range []bool{true, false} {
		rec := NewRecorder(50, countIMUL)
		if err := runSpin(rec); err != nil {
			t.Fatal(err)
		}
		tr := rec.Finish()
		tr.HostPure = hostPure

		const target = wdBlocks - 1 // lane 3 of launch 0's IMUL: flag[3]
		ref := &flip{target: target, mask: 1}
		plain := &Plain{Hooks: ref.hooks()}
		perr := runSpin(plain)
		f := &flip{target: target, mask: 1}
		p := f.player(tr, nil)
		err := runSpin(p)

		if !errors.Is(perr, emu.ErrWatchdog) || !errors.Is(err, emu.ErrWatchdog) {
			t.Fatalf("hostPure=%v: plain %v, player %v; want ErrWatchdog from both", hostPure, perr, err)
		}
		var ple, le *emu.LaunchError
		if errors.As(perr, &ple) && errors.As(err, &le) && *ple != *le {
			t.Errorf("hostPure=%v: plain stopped at %v, player at %v", hostPure, ple, le)
		}
		total := p.Live.DynThreadInstrs + p.Skipped
		if total != plain.Res.DynThreadInstrs {
			t.Errorf("hostPure=%v: player stopped after %d thread-instructions, plain run after %d",
				hostPure, total, plain.Res.DynThreadInstrs)
		}
		if spent := total - launchInstrs(tr, 0); spent <= wdBudget || spent > wdBudget+emu.WarpSize {
			t.Errorf("hostPure=%v: hung launch ran %d thread-instructions on a budget of %d", hostPure, spent, wdBudget)
		}
	}
}

// The block-table workloads: one launch of btGrid blocks x stBlock threads
// over an arena of a seed row, an output region and an input region. Each
// kernel runs exactly one IMUL per thread, the countable instruction, so
// target t is thread t of block t/stBlock.
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
)

func runBlockTable(rt Runner, prog *kasm.Program, budget uint64) ([]uint32, error) {
	g := rt.Arena(btWords)
	for i := 0; i < stBlock; i++ {
		g[btSeed+i] = uint32(7 * i)
	}
	for i := 0; i < btN; i++ {
		g[btIn+i] = uint32(1 + i%3)
	}
	if err := rt.Launch(&emu.Launch{Prog: prog, Grid: btGrid, Block: stBlock, Global: g, MaxDynInstrs: budget}); err != nil {
		return nil, err
	}
	return slices.Clone(g), nil
}

// TestFaultingLaunchEndsAtFaultedBlock: for every target of each block-table
// workload, a fast-forwarded run reaches the outcome, arena and sim +
// skipped total of a plain run with the same fault, and skips the faulting
// launch's remainder exactly when no later block can read the fault.
func TestFaultingLaunchEndsAtFaultedBlock(t *testing.T) {
	cases := []struct {
		name  string
		prog  *kasm.Program
		mask  uint32
		every uint64 // checkpoint spacing; past the launch, blocks before the faulted one run live
		slack uint64 // watchdog budget over the golden count; 0: the default
		tail  bool   // the remainder after the faulted block is skipped
		err   error
	}{
		{name: "(a) independent blocks: the remainder is skipped",
			prog: btIndependent, mask: liveBit, every: 1 << 20, tail: true},
		{name: "(b) a later block reads the faulted block's output",
			prog: btChained, mask: liveBit, every: 100},
		{name: "(c) the fault redirects a store into the input region",
			prog: btAddressed, mask: 5 << 5, every: 100},
		{name: "(d) the faulted block's extra work would trip the watchdog in the remainder",
			prog: btCounting, mask: 1 << 6, every: 100, slack: 64, err: emu.ErrWatchdog},
		{name: "(e) every target forks inside its own block, the last block's included",
			prog: btIndependent, mask: liveBit, every: 1, tail: true},
	}
	pool := &Pool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := &Plain{}
			if _, err := runBlockTable(plain, tc.prog, 0); err != nil {
				t.Fatal(err)
			}
			var budget uint64
			if tc.slack > 0 {
				budget = plain.Res.DynThreadInstrs + tc.slack
			}
			rec := NewRecorder(tc.every, countIMUL)
			if _, err := runBlockTable(rec, tc.prog, budget); err != nil {
				t.Fatal(err)
			}
			tr := rec.Finish()
			blocks := tr.Launches[0].Blocks
			if tr.Count != btN || len(blocks) != btGrid {
				t.Fatalf("trace: %d countable, %d blocks", tr.Count, len(blocks))
			}
			sawTail := false
			for target := uint64(0); target < btN; target++ {
				ref := &flip{target: target, mask: tc.mask}
				rp := &Plain{Hooks: ref.hooks()}
				want, werr := runBlockTable(rp, tc.prog, budget)
				f := &flip{target: target, mask: tc.mask}
				p := f.player(tr, pool)
				got, err := runBlockTable(p, tc.prog, budget)

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
				ck := forkPoint(tr, target)
				skipped := ck.CumInstrs
				if tc.tail {
					skipped += faultTail(tr, target)
					sawTail = sawTail || faultTail(tr, target) > 0
				}
				if p.Skipped != skipped {
					t.Errorf("target %d: skipped %d, want %d", target, p.Skipped, skipped)
				}
				if b := int(target) / stBlock; tc.every == 1 && (b > 0 && ck.CumInstrs <= blocks[b-1].Instrs || ck.CumInstrs == 0) {
					t.Errorf("target %d: forked at instruction %d, outside its block %d", target, ck.CumInstrs, b)
				}
			}
			if tc.tail && !sawTail {
				t.Error("no target left a remainder to skip")
			}
		})
	}
}
