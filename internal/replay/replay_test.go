package replay

import (
	"errors"
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

// TestPlayerSimulatesNothingBeforeItsCheckpoint: launches that end before
// the fork point replay from write-sets, the fork launch restores its
// snapshot, and the countdown arms the hook on exactly the target.
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
		if p.Skipped != ck.CumInstrs || p.Live.DynThreadInstrs != tr.Instrs-ck.CumInstrs {
			t.Errorf("target %d: sim %d skipped %d, want %d and %d (fork at launch %d)",
				target, p.Live.DynThreadInstrs, p.Skipped, tr.Instrs-ck.CumInstrs, ck.CumInstrs, ck.Launch)
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

			wantSkipped := forkPoint(tr, tc.target).CumInstrs
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
