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

// naiveRecorder is the reference the Recorder's bookkeeping is held to:
// it copies the whole arena before every launch and diffs the whole arena
// after it, and diffs the whole arena against a copy taken at the previous
// launch's end for the host writes — no bitmap walk, no image kept up to
// date incrementally — and takes each block's writes from its store
// events.
type naiveRecorder struct {
	every, nextCk uint64
	g, post       []uint32
	launches      []LaunchRec
	ckpts         []Checkpoint // Snap left nil: positions only
	instrs, count uint64
}

func diffArena(from, to []uint32) []Delta {
	var d []Delta
	for i, v := range to {
		if v != from[i] {
			d = append(d, Delta{Idx: uint32(i), Val: v})
		}
	}
	return d
}

func (n *naiveRecorder) Arena(words int) []uint32 {
	n.g = make([]uint32, words)
	return n.g
}

func (n *naiveRecorder) Launch(l *emu.Launch) error {
	ord := len(n.launches)
	var host []Delta
	if ord > 0 {
		host = diffArena(n.post, n.g)
	}
	pre := slices.Clone(n.g)
	words := (len(n.g) + 63) / 64
	mt := &emu.MemTrace{Reads: make([]uint64, words), Writes: make([]uint64, words)}
	l.Mem = mt
	// Block records from the store events themselves: every address a
	// block's GSTs name, valued at the block's end.
	var blocks []BlockRec
	var stored []int
	l.Hooks.Post = func(ev *emu.Event) {
		if ev.Instr.Op == isa.OpGST {
			for m := ev.Active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				stored = append(stored, int(int32(ev.SrcA(lane)))+int(ev.Instr.Imm))
			}
		}
	}
	l.BlockDone = func(_ int, res *emu.Result) bool {
		slices.Sort(stored)
		var w []Delta
		for _, i := range slices.Compact(stored) {
			w = append(w, Delta{Idx: uint32(i), Val: n.g[i]})
		}
		blocks = append(blocks, BlockRec{Writes: w, Instrs: res.DynThreadInstrs})
		stored = stored[:0]
		return false
	}
	base, baseCount := n.instrs, n.count
	res, err := emu.RunCheckpointed(l, n.nextCk-base, n.every, func(s *emu.Snapshot) {
		sr := s.Res()
		n.ckpts = append(n.ckpts, Checkpoint{
			Launch: ord, CumInstrs: base + sr.DynThreadInstrs, CumCount: baseCount + sr.PerOpcode[isa.OpIMUL],
		})
	})
	if err != nil {
		return err
	}
	n.instrs, n.count = base+res.DynThreadInstrs, baseCount+res.PerOpcode[isa.OpIMUL]
	n.launches = append(n.launches, LaunchRec{
		Deltas: diffArena(pre, n.g), Host: host, Reads: mt.Reads, Writes: mt.Writes,
		CumInstrs: n.instrs, CumCount: n.count, Blocks: blocks,
	})
	n.post = slices.Clone(n.g)
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

// mixKernels is what a mixed schedule draws its launches from: the three
// stages (a repeated stage rewrites the values its first run stored) and
// the two touch kernels.
var mixKernels = append(slices.Clone(stages), touch(offB, true), touch(offC, false))

// mixSlack is the untouched tail of the mixed workload's arena, ~60 times
// its footprint — the shape of apps.ArenaSlack.
const mixSlack = 20_000

// runMixed executes a seed-determined schedule on rt: 4 to 9 launches
// drawn from mixKernels, and between them host code that writes a few
// random words — inputs, intermediate regions, the parameter, sometimes
// the slack, sometimes the value a word already holds. The host reads
// nothing, so it is pure and replays identically on every Runner.
func runMixed(rt Runner, seed int64) ([]uint32, error) {
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
					g[r.Intn(stWords)] = uint32(r.Intn(1 << 20))
				case 1:
					g[stWords+r.Intn(mixSlack)] = uint32(r.Intn(8))
				case 2:
					g[offParam] = uint32(1 + r.Intn(3))
				case 3:
					// A host write that changes nothing.
					i := r.Intn(stWords)
					v := g[i]
					g[i] = v
				}
			}
		}
		prog := mixKernels[r.Intn(len(mixKernels))]
		if err := rt.Launch(&emu.Launch{Prog: prog, Grid: stGrid, Block: stBlock, Global: g}); err != nil {
			return nil, err
		}
	}
	return slices.Clone(g), nil
}

// TestRecorderMatchesNaiveReference: over seeded mixed schedules — host
// writes between launches, launches that rewrite words with their old
// values, launches that write nothing, slack far larger than the footprint
// — the Recorder's trace, per-block records included, equals the
// whole-arena-diff reference's word for word, and a Player forked from
// any of its checkpoints reproduces the plain run.
func TestRecorderMatchesNaiveReference(t *testing.T) {
	var sawHost, sawSilentWrite, sawNoWrite bool
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

		// A block's writes are a set: put them in the reference's order.
		for _, l := range tr.Launches {
			for _, b := range l.Blocks {
				slices.SortFunc(b.Writes, func(x, y Delta) int { return int(x.Idx) - int(y.Idx) })
			}
		}
		if tr.Words != len(ref.g) || tr.Instrs != ref.instrs || tr.Count != ref.count {
			t.Fatalf("seed %d: trace %d words %d instrs %d countable, reference %d/%d/%d",
				seed, tr.Words, tr.Instrs, tr.Count, len(ref.g), ref.instrs, ref.count)
		}
		if !reflect.DeepEqual(tr.Launches, ref.launches) {
			for k := range ref.launches {
				if !reflect.DeepEqual(tr.Launches[k], ref.launches[k]) {
					got, want := tr.Launches[k], ref.launches[k]
					t.Fatalf("seed %d launch %d: deltas, host, reads, writes or cum differ: recorder %d deltas %d host cum %d/%d, reference %d deltas %d host cum %d/%d",
						seed, k, len(got.Deltas), len(got.Host), got.CumInstrs, got.CumCount,
						len(want.Deltas), len(want.Host), want.CumInstrs, want.CumCount)
				}
			}
			t.Fatalf("seed %d: %d launches recorded, reference %d", seed, len(tr.Launches), len(ref.launches))
		}
		if len(tr.Ckpts) != len(ref.ckpts) {
			t.Fatalf("seed %d: %d checkpoints, reference %d", seed, len(tr.Ckpts), len(ref.ckpts))
		}
		for i, ck := range tr.Ckpts {
			if want := ref.ckpts[i]; ck.Launch != want.Launch || ck.CumInstrs != want.CumInstrs || ck.CumCount != want.CumCount {
				t.Fatalf("seed %d checkpoint %d at launch %d instr %d count %d, reference %d/%d/%d",
					seed, i, ck.Launch, ck.CumInstrs, ck.CumCount, want.Launch, want.CumInstrs, want.CumCount)
			}
		}

		for _, l := range tr.Launches {
			written := 0
			for _, m := range l.Writes {
				if m != 0 {
					written++
				}
			}
			sawHost = sawHost || len(l.Host) > 0
			sawNoWrite = sawNoWrite || written == 0
			sawSilentWrite = sawSilentWrite || (written > 0 && len(l.Deltas) == 0)
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
	if !sawHost || !sawSilentWrite || !sawNoWrite {
		t.Fatalf("schedules never exercised a case: host writes %v, write without delta %v, launch without write %v",
			sawHost, sawSilentWrite, sawNoWrite)
	}
}
