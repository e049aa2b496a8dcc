package replay

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gpufi/internal/emu"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// naiveRecorder is the reference the Recorder's bookkeeping is held to: it
// builds each unit's record (a block's, or a warp's in a barrier-free launch)
// from the unit's GLD and GST events alone — a word is an input when a
// load reads it before any store of the unit names it — with no bitmap,
// and keeps whole copies of the arena before and after every launch and
// at every checkpoint.
type naiveRecorder struct {
	every, nextCk uint64
	g             []uint32
	launches      []LaunchRec
	pre, post     [][]uint32
	ckpts         []Checkpoint // Snap and Delta left nil: positions only
	images        [][]uint32   // the arena at each checkpoint
	stored        [][]uint32   // the words the launch stored before each checkpoint, ascending
	instrs, count uint64
}

func (n *naiveRecorder) Arena(words int) []uint32 {
	n.g = make([]uint32, words)
	return n.g
}

func (n *naiveRecorder) Launch(l *emu.Launch) error {
	ord := len(n.launches)
	n.pre = append(n.pre, slices.Clone(n.g))
	launchStored := map[int]bool{}
	stored := map[int]bool{}
	loaded := map[int]uint32{}
	lanes := map[int]uint32{} // every lane that loaded or stored a word
	addr := func(ev *emu.Event, lane int) int { return int(int32(ev.SrcA(lane))) + int(ev.Instr.Imm) }
	l.Hooks.Post = func(ev *emu.Event) {
		for m := ev.Active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			switch a := addr(ev, lane); ev.Instr.Op {
			case isa.OpGST:
				stored[a] = true
				launchStored[a] = true
				lanes[a] |= 1 << lane
			case isa.OpGLD:
				if _, seen := loaded[a]; !seen && !stored[a] {
					loaded[a], _ = ev.DstValue(lane)
				}
				lanes[a] |= 1 << lane
			}
		}
	}
	var units []UnitRec
	l.BlockDone = func(_, _ int, res *emu.Result) bool {
		blk := UnitRec{Instrs: res.DynThreadInstrs, Count: res.PerOpcode[isa.OpIMUL]}
		// A warp of a lane-safe launch keeps its lanes when every word it
		// stores has one lane touching it.
		split := emu.LaneSafe(l.Prog)
		var owner []uint8
		var inLanes []uint32
		for i := range n.g {
			if stored[i] {
				blk.Writes = append(blk.Writes, Delta{Idx: uint32(i), Val: n.g[i]})
				split = split && bits.OnesCount32(lanes[i]) == 1
				owner = append(owner, uint8(bits.TrailingZeros32(lanes[i])))
			}
			v, ok := loaded[i]
			if !ok {
				continue
			}
			if _, prev := loaded[i-1]; prev {
				blk.In.Runs[len(blk.In.Runs)-1].Len++
			} else {
				blk.In.Runs = append(blk.In.Runs, Run{Start: uint32(i), Len: 1})
			}
			blk.In.Vals = append(blk.In.Vals, v)
			inLanes = append(inLanes, lanes[i])
		}
		if split && inLanes != nil {
			blk.Owner, blk.In.Lanes = owner, inLanes
		}
		units = append(units, blk)
		clear(stored)
		clear(loaded)
		clear(lanes)
		return true
	}
	base, baseCount := n.instrs, n.count
	res, err := emu.RunCheckpointed(l, n.nextCk-base, n.every, func(s *emu.Snapshot) {
		sr := s.Res()
		n.ckpts = append(n.ckpts, Checkpoint{
			Launch: ord, CumInstrs: base + sr.DynThreadInstrs, CumCount: baseCount + sr.PerOpcode[isa.OpIMUL],
		})
		n.images = append(n.images, slices.Clone(n.g))
		var words []uint32
		for a := range launchStored {
			words = append(words, uint32(a))
		}
		slices.Sort(words)
		n.stored = append(n.stored, words)
	})
	if err != nil {
		return err
	}
	n.instrs, n.count = base+res.DynThreadInstrs, baseCount+res.PerOpcode[isa.OpIMUL]
	n.launches = append(n.launches, LaunchRec{
		Prog: l.Prog, Grid: l.Grid, Block: l.Block, SharedWords: l.SharedWords, MaxDynInstrs: l.MaxDynInstrs,
		CumInstrs: n.instrs, CumCount: n.count, Units: units,
	})
	n.post = append(n.post, slices.Clone(n.g))
	for n.nextCk <= n.instrs {
		n.nextCk += n.every
	}
	return nil
}

// touch loads every word of a region and, with store set, stores it back
// unchanged: a launch that marks Writes and changes nothing. Without store
// the launch writes nothing at all.
func touch(region int32, store bool) *kasm.Program {
	b := kasm.New("touch")
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNtid, isa.SRNtid)
	b.IMad(rIdx, rCta, rNtid, rTid)
	b.Gld(rVal, rIdx, region)
	b.IMulI(rProd, rVal, 3)
	if store {
		b.Gst(rIdx, region, rVal)
	}
	return kasm.MustFinalize(b)
}

// swap has thread i store 3i to region[i], load it back (not an input:
// the unit stored it first), then load its partner region[i^stBlock] —
// for the second unit a word the first unit of the same launch stored —
// and park the sum in scratch.
func swap(region int32) *kasm.Program {
	b := kasm.New("swap")
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNtid, isa.SRNtid)
	b.IMad(rIdx, rCta, rNtid, rTid)
	b.IMulI(rProd, rIdx, 3)
	b.Gst(rIdx, region, rProd)
	b.Gld(rVal, rIdx, region)
	b.XorI(rAddr, rIdx, stBlock)
	b.Gld(rPrev, rAddr, region)
	b.IAdd(rOut, rVal, rPrev)
	b.Gst(rIdx, offScratch, rOut)
	return kasm.MustFinalize(b)
}

// overwrite has every unit store to the same words: thread i stores i+1 to
// region[lane], then parks 5·A[i] in scratch. A checkpoint in the second
// unit after its first store sees region hold values the first unit's
// record does not.
func overwrite(region int32) *kasm.Program {
	b := kasm.New("overwrite")
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNtid, isa.SRNtid)
	b.IMad(rIdx, rCta, rNtid, rTid)
	b.S2R(rAddr, isa.SRLane)
	b.IAddI(rOut, rIdx, 1)
	b.Gst(rAddr, region, rOut)
	b.Gld(rVal, rIdx, offA)
	b.IMulI(rProd, rVal, 5)
	b.Gst(rIdx, offScratch, rProd)
	return kasm.MustFinalize(b)
}

// mixKernels is what a mixed schedule draws its launches from: the three
// stages (a repeated stage rewrites the values its first run stored), the
// two touch kernels, swap and overwrite.
var mixKernels = append(slices.Clone(stages), touch(offB, true), touch(offC, false), swap(offC), overwrite(offOut))

// mixSlack is the untouched tail of the mixed workload's arena, ~60 times
// its footprint — the shape of apps.ArenaSlack.
const mixSlack = 20_000

// runMixed executes a seed-determined schedule on rt: 4 to 9 launches
// drawn from mixKernels, each on two 32-thread blocks or on one block of
// two warps, and between them host code that writes a few random words —
// inputs, intermediate regions, the parameter, sometimes the slack,
// sometimes the value a word already holds. The host reads nothing, so it
// is pure and replays identically on every Runner.
func runMixed(rt Runner, seed int64) ([]uint32, error) {
	rt = checkHost(rt)
	r := rand.New(rand.NewSource(seed))
	g := rt.Arena(stWords + mixSlack)
	for i := 0; i < stN; i++ {
		g[offA+i] = uint32(r.Intn(1 << 20))
	}
	g[offParam] = 1
	for k, n := 0, 4+r.Intn(6); k < n; k++ {
		if k > 0 {
			for w := r.Intn(4); w > 0; w-- {
				switch r.Intn(4) {
				case 0:
					HostStore(rt, g, r.Intn(stWords), uint32(r.Intn(1<<20)))
				case 1:
					HostStore(rt, g, stWords+r.Intn(mixSlack), uint32(r.Intn(8)))
				case 2:
					HostStore(rt, g, offParam, uint32(1+r.Intn(3)))
				case 3:
					// A host write that changes nothing.
					i := r.Intn(stWords)
					HostStore(rt, g, i, g[i])
				}
			}
		}
		prog := mixKernels[r.Intn(len(mixKernels))]
		grid := stGrid >> r.Intn(2)
		if err := rt.Launch(&emu.Launch{Prog: prog, Grid: grid, Block: stN / grid, Global: g}); err != nil {
			return nil, err
		}
	}
	return slices.Clone(g), nil
}

// TestRecorderMatchesNaiveReference: over seeded mixed schedules — host
// writes between launches, launches that rewrite words with their old
// values, launches that write nothing, blocks and warps that load what an
// earlier block or warp stored, slack far larger than the footprint — the
// Recorder's trace, per-unit writes and inputs included, equals the
// event-built reference's word for word; applying a launch's unit writes to its golden pre-image
// gives its golden post-image; a checkpoint's Delta lists once each word
// its launch stored before the capture, and applied to the launch's
// pre-image gives the arena at capture, also where a later unit re-stored
// a word an earlier one wrote; and a Player forked from any of its
// checkpoints reproduces the plain run.
func TestRecorderMatchesNaiveReference(t *testing.T) {
	var sawHost, sawSilentWrite, sawNoWrite, sawRestored bool
	var sawCross [2]bool // input stored by an earlier block, by an earlier warp
	pool := &Pool{}
	for seed := int64(1); seed <= 12; seed++ {
		golden, err := runMixed(&Plain{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(97, countIMUL)
		if out, err := runMixed(rec, seed); err != nil || !slices.Equal(out, golden) {
			t.Fatalf("seed %d: recorded run diverged from the plain run (err %v)", seed, err)
		}
		tr := rec.Finish()
		ref := &naiveRecorder{every: 97, nextCk: 97}
		if _, err := runMixed(ref, seed); err != nil {
			t.Fatal(err)
		}

		if tr.Words != len(ref.g) || tr.Instrs != ref.instrs || tr.Count != ref.count {
			t.Fatalf("seed %d: trace %d words %d instrs %d countable, reference %d/%d/%d",
				seed, tr.Words, tr.Instrs, tr.Count, len(ref.g), ref.instrs, ref.count)
		}
		if len(tr.Launches) != len(ref.launches) {
			t.Fatalf("seed %d: %d launches recorded, reference %d", seed, len(tr.Launches), len(ref.launches))
		}
		for k, l := range tr.Launches {
			if want := ref.launches[k]; !reflect.DeepEqual(l, want) {
				t.Fatalf("seed %d launch %d: recorder %+v, reference %+v", seed, k, l, want)
			}
			g := slices.Clone(ref.pre[k])
			l.apply(g)
			if !slices.Equal(g, ref.post[k]) {
				t.Fatalf("seed %d launch %d: unit writes applied to the pre-image miss the post-image", seed, k)
			}
			writes := len(l.Units[0].Writes) + len(l.Units[1].Writes)
			sawHost = sawHost || k > 0 && !slices.Equal(ref.pre[k], ref.post[k-1])
			sawSilentWrite = sawSilentWrite || writes > 0 && slices.Equal(ref.pre[k], ref.post[k])
			sawNoWrite = sawNoWrite || writes == 0
			v := l.Units[1].In.Vals
			for _, r := range l.Units[1].In.Runs {
				cross := &sawCross[l.Grid&1] // Grid 1: two warps of one block
				*cross = *cross || !slices.Equal(v[:r.Len], ref.pre[k][r.Start:r.Start+r.Len])
				v = v[r.Len:]
			}
		}
		if len(tr.Ckpts) != len(ref.ckpts) {
			t.Fatalf("seed %d: %d checkpoints, reference %d", seed, len(tr.Ckpts), len(ref.ckpts))
		}
		for i, ck := range tr.Ckpts {
			if want := ref.ckpts[i]; ck.Launch != want.Launch || ck.CumInstrs != want.CumInstrs || ck.CumCount != want.CumCount {
				t.Fatalf("seed %d checkpoint %d at launch %d instr %d count %d, reference %d/%d/%d",
					seed, i, ck.Launch, ck.CumInstrs, ck.CumCount, want.Launch, want.CumInstrs, want.CumCount)
			}
			var words []uint32
			for _, d := range ck.Delta {
				words = append(words, d.Idx)
			}
			slices.Sort(words)
			if !slices.Equal(words, ref.stored[i]) {
				t.Fatalf("seed %d checkpoint %d: Delta holds words %v, the launch stored %v", seed, i, words, ref.stored[i])
			}
			g := slices.Clone(ref.pre[ck.Launch])
			store(g, ck.Delta)
			if !slices.Equal(g, ref.images[i]) {
				t.Fatalf("seed %d checkpoint %d: Delta applied to the launch's pre-image misses the arena at capture", seed, i)
			}
			rec := &tr.Launches[ck.Launch]
			for _, ur := range rec.Units[:rec.unit(ck.Snap.Block(), ck.Snap.Warp())] {
				for _, w := range ur.Writes {
					sawRestored = sawRestored || ref.images[i][w.Idx] != w.Val
				}
			}
		}

		for ck := -1; ck < len(tr.Ckpts); ck++ {
			got, err := runMixed(NewPlayerAt(tr, ck, pool), seed)
			if err != nil {
				t.Fatalf("seed %d checkpoint %d: %v", seed, ck, err)
			}
			if !slices.Equal(got, golden) {
				t.Fatalf("seed %d checkpoint %d: arena differs from the plain run", seed, ck)
			}
		}
	}
	if !sawHost || !sawSilentWrite || !sawNoWrite || !sawCross[0] || !sawCross[1] || !sawRestored {
		t.Fatalf("schedules never exercised a case: host writes %v, write without change %v, launch without write %v, input stored by an earlier block %v, by an earlier warp %v, a finished unit's write re-stored before a checkpoint %v",
			sawHost, sawSilentWrite, sawNoWrite, sawCross[0], sawCross[1], sawRestored)
	}
}
