package rtl_test

import (
	"slices"
	"sort"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
	"gpufi/internal/mxm"
	"gpufi/internal/rtl"
	"gpufi/internal/rtlfi"
	"gpufi/internal/stats"
)

// pagedProgram is one characterised program with its first input draw
// at seed 2021, launched as its campaign launches it.
type pagedProgram struct {
	name        string
	prog        *kasm.Program
	block       int
	sharedWords int
	budget      uint64
	global      []uint32
}

func characterisedPrograms(t *testing.T) []pagedProgram {
	t.Helper()
	var ps []pagedProgram
	for _, op := range isa.CharacterizedOpcodes() {
		prog, err := rtlfi.BuildMicro(op)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, pagedProgram{op.String(), prog, rtlfi.MicroThreads, 0, 1_000_000,
			rtlfi.MicroInputs(op, faults.RangeMedium, stats.NewRNG(2021))})
	}
	prog, err := mxm.Build(mxm.Tile)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mxm.TileInputs(mxm.TileRandom, stats.NewRNG(2021).Uint64())
	return append(ps, pagedProgram{"t-MxM", prog, mxm.BlockThreads, mxm.SharedWords, 5_000_000, mxm.Pack(a, b, mxm.Tile)})
}

// TestRegisterPages pins what the RTL machines of a campaign hold, for
// every micro-benchmark and t-MxM: a machine allocates the register
// pages of the warps it writes (two, for 64 threads) and no other, both
// after a checkpointed golden run and after a march of 63 faults from
// one of its checkpoints; every checkpoint shares each image equal to
// its predecessor's by pointer and copies the rest; and a machine back
// from the pool keeps no page beyond its block's warps, even after a
// fault retargeted a writeback to a warp outside it.
func TestRegisterPages(t *testing.T) {
	warps := []int{0, 1}
	for _, p := range characterisedPrograms(t) {
		m := rtl.New()
		var snaps []*rtl.Snapshot
		if err := m.Run(p.prog, 1, p.block, slices.Clone(p.global), p.sharedWords, p.budget); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		every := max(m.Cycles()/24, 1)
		golden := slices.Clone(p.global)
		if err := m.RunCheckpointed(p.prog, 1, p.block, golden, p.sharedWords, p.budget, every,
			func(s *rtl.Snapshot) { snaps = append(snaps, s) }); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got := m.Pages(); !slices.Equal(got, warps) {
			t.Errorf("%s: golden machine holds the pages of warps %v, want %v", p.name, got, warps)
		}
		shared := 0
		for k := 1; k < len(snaps); k++ {
			equal, same := snaps[k].Sharing(snaps[k-1])
			for i := range equal {
				if equal[i] != same[i] {
					t.Fatalf("%s: checkpoint %d image %d: equal to its predecessor's %v, shared %v", p.name, k, i, equal[i], same[i])
				}
				if equal[i] {
					shared++
				}
			}
		}
		if shared == 0 {
			t.Errorf("%s: no checkpoint shares an image with its predecessor", p.name)
		}

		cycles := m.Cycles()
		rng := stats.NewRNG(2021)
		fs := make([]rtl.Fault, rtl.VecMaxLanes)
		for i := range fs {
			fs[i] = rtl.Fault{Module: faults.ModPipe, Bit: rng.Intn(rtl.FFCountPipe), Cycle: uint64(rng.Intn(int(cycles)))}
		}
		sort.Slice(fs, func(a, b int) bool { return fs[a].Cycle < fs[b].Cycle })
		// A faulty run may write a warp the golden run does not (a
		// flipped wb_warp bit); the warps some fault's run writes alone
		// on a fresh machine bound a lane machine's pages.
		written := map[int]bool{0: true, 1: true}
		for _, f := range fs {
			ref := rtl.New()
			ref.Inject(f)
			_, _ = ref.RunFromPruned(snaps[f.Cycle/every], cycles*10+1000, 0, nil)
			for _, w := range ref.Pages() {
				written[w] = true
			}
		}
		eng := rtl.NewVecEngine()
		if _, err := eng.March(p.prog, p.block, p.global, p.sharedWords, fs, cycles*10+1000,
			&rtl.MarchOpts{Start: snaps[fs[0].Cycle/every], GoldenCycles: cycles}); err != nil {
			t.Fatalf("%s: march: %v", p.name, err)
		}
		ms := eng.Machines()
		if got := ms[0].Pages(); !slices.Equal(got, warps) {
			t.Errorf("%s: golden march machine holds the pages of warps %v, want %v", p.name, got, warps)
		}
		for i, lm := range ms[1:] {
			for _, w := range lm.Pages() {
				if !written[w] {
					t.Errorf("%s: lane machine %d holds a page of warp %d, which no faulty run writes", p.name, i, w)
				}
			}
		}
		eng.Close()
		// Close released every machine to the pool.
		for i, pm := range ms {
			if got := pm.Pages(); len(got) > 0 && got[len(got)-1] >= len(warps) {
				t.Errorf("%s: march machine %d went back to the pool with the pages of warps %v", p.name, i, got)
			}
		}
	}
}
