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

// Differential fuzzing of the Player against a Plain run with the same
// fault. A payload decodes into a multi-launch workload over two ping-pong
// regions, on blocks of one, two or four warps, built from kernels that
// between them
//
//   - load words an earlier block of the same launch stored (fzChain),
//   - load words an earlier warp of the same block stored (fzWarpChain),
//   - store a word and then load it, which is no input (fzStoreLoad),
//   - loop a data-dependent number of times, so a fault can hang them or
//     leave a block with extra work under a tight watchdog (fzLoop),
//   - load and store at data-dependent addresses (fzGather, fzScatter),
//   - pass values through shared memory across a barrier (fzRev), or
//     through global memory (fzBarrier): the kernels whose unit of replay
//     stays the block,
//   - take store and load addresses from the top byte of a loaded word,
//     zero in the golden run (fzHop): a corrupted lane of a warp that lane
//     replay splits stores into an input another lane loads after it, onto
//     another lane's output or out of the arena, or loads another lane's
//     output,
//
// and host code that reads the arena between launches and picks the next
// launch's program, grid and parameter from it, so a fault can change the
// launch sequence. Every launch's watchdog budget is its golden count plus
// a small slack. For every countable target, and for a host-applied
// corruption after every launch, the fast-forwarded run must reach the
// output arena, error and thread-instruction total of the plain run.

const (
	fzRegion = 256
	fzX      = 0
	fzY      = fzRegion
	fzP      = 2 * fzRegion // the launch parameter the host writes
	fzWords  = fzP + 64     // parameter and slack
)

type fzKind int

const (
	fzMap fzKind = iota
	fzChain
	fzStoreLoad
	fzLoop
	fzGather
	fzRev
	fzScatter
	fzWarpChain
	fzBarrier
	fzHop
	fzKinds
)

// fuzzCount is the fuzz workloads' countable predicate: the loop counter,
// its bound and every loaded value are targets.
func fuzzCount(op isa.Opcode) bool {
	switch op {
	case isa.OpIMUL, isa.OpIADD, isa.OpGLD, isa.OpAND:
		return true
	}
	return false
}

// fzKernel builds kind reading region src and writing region dst. Thread
// idx = ctaid*ntid + tid; rParam holds the launch parameter.
func fzKernel(kind fzKind, src, dst int32) *kasm.Program {
	b := kasm.New(fmt.Sprintf("fz%d", kind))
	b.S2R(rTid, isa.SRTid)
	b.S2R(rCta, isa.SRCtaid)
	b.S2R(rNtid, isa.SRNtid)
	b.IMad(rIdx, rCta, rNtid, rTid)
	b.Gld(rParam, isa.RZ, fzP)
	b.Gld(rVal, rIdx, src)
	switch kind {
	case fzMap:
		b.IMulI(rProd, rVal, 3)
		b.IAdd(rOut, rProd, rParam)
		b.Gst(rIdx, dst, rOut)
	case fzChain:
		// out[idx] = in[idx] + out[idx-ntid]: block j reads block j-1's.
		b.MovI(rPrev, 0)
		b.ISetPI(isa.P(0), isa.CmpGT, rCta, 0)
		b.If(isa.P(0), func() {
			b.IMadI(rAddr, rNtid, -1, rIdx)
			b.Gld(rPrev, rAddr, dst)
		})
		b.IAdd(rOut, rVal, rPrev)
		b.IAdd(rOut, rOut, rParam)
		b.Gst(rIdx, dst, rOut)
	case fzStoreLoad:
		b.IAdd(rOut, rVal, rParam)
		b.Gst(rIdx, dst, rOut)
		b.Gld(rProd, rIdx, dst)
		b.XorI(rAddr, rIdx, 1)
		b.Gld(rPrev, rAddr, dst) // the same warp stored it
		b.IMulI(rProd, rProd, 3)
		b.IAdd(rOut, rProd, rPrev)
		b.Gst(rIdx, dst, rOut)
	case fzLoop:
		b.AndI(rCnt, rVal, 3)
		b.MovI(rI, 0)
		b.Loop(func() {
			b.IAddI(rI, rI, 1)
		}, func() isa.Pred {
			b.ISetP(isa.P(0), isa.CmpLT, rI, rCnt)
			return isa.P(0)
		})
		b.IAdd(rOut, rI, rParam)
		b.Gst(rIdx, dst, rOut)
	case fzGather:
		b.AndI(rAddr, rVal, fzRegion-1)
		b.Gld(rPrev, rAddr, src)
		b.IAdd(rOut, rPrev, rParam)
		b.Gst(rIdx, dst, rOut)
	case fzRev:
		b.Sst(rTid, 0, rVal)
		b.Bar()
		b.IAddI(rAddr, rNtid, -1)
		b.IMadI(rAddr, rTid, -1, rAddr)
		b.Sld(rPrev, rAddr, 0)
		b.IAdd(rOut, rPrev, rParam)
		b.Gst(rIdx, dst, rOut)
	case fzScatter:
		b.AndI(rAddr, rVal, fzRegion-1)
		b.IAdd(rOut, rIdx, rParam)
		b.Gst(rAddr, dst, rOut)
	case fzWarpChain:
		// out[idx] = in[idx] + out[idx-32]: every warp but the grid's
		// first reads the one before it, in its own block when the block
		// has several.
		b.MovI(rPrev, 0)
		b.ISetPI(isa.P(0), isa.CmpGE, rIdx, emu.WarpSize)
		b.If(isa.P(0), func() {
			b.Gld(rPrev, rIdx, dst-emu.WarpSize)
		})
		b.IAdd(rOut, rVal, rPrev)
		b.IAdd(rOut, rOut, rParam)
		b.Gst(rIdx, dst, rOut)
	case fzBarrier:
		// Store, wait, then read the word of the thread one warp over —
		// in the same block when it has several warps.
		b.IAdd(rOut, rVal, rParam)
		b.Gst(rIdx, dst, rOut)
		b.Bar()
		b.XorI(rAddr, rIdx, emu.WarpSize)
		b.Gld(rPrev, rAddr, dst)
		b.IMulI(rProd, rPrev, 3)
		b.IAdd(rOut, rOut, rProd)
		b.Gst(rIdx, dst, rOut)
	case fzHop:
		// The top byte of the loaded word moves the first store: bit 24
		// into the source region onto word idx^2, which threads idx^2 and
		// idx^3 load; bits 25-28 onto the output of thread idx^k; bits 30-31
		// out of the arena. Bit 29 moves the partner load from the source
		// word idx^1 onto the output thread idx^2 stored. The second store
		// writes out[idx] in any case.
		b.Shr(rCnt, rVal, 24)
		b.AndI(rAddr, rCnt, 1)
		b.IMadI(rAddr, rAddr, src-dst, rIdx)
		b.Shl(rI, rCnt, 1)
		b.AndI(rI, rI, 62)
		b.Xor(rAddr, rAddr, rI)
		b.Shr(rI, rCnt, 6)
		b.IMadI(rAddr, rI, 4096, rAddr)
		b.IAdd(rOut, rVal, rParam)
		b.Gst(rAddr, dst, rOut)
		b.Shr(rI, rCnt, 5)
		b.AndI(rI, rI, 1)
		b.IMulI(rProd, rI, 3)
		b.Xor(rPrev, rIdx, rProd)
		b.XorI(rPrev, rPrev, 1)
		b.IMadI(rPrev, rI, dst-src, rPrev)
		b.Gld(rPrev, rPrev, src)
		b.IAdd(rOut, rOut, rPrev)
		b.Gst(rIdx, dst, rOut)
	}
	return kasm.MustFinalize(b)
}

// fzProgs holds every kernel in both directions, built once so a replayed
// launch finds the program it recorded.
var fzProgs = func() (p [fzKinds][2]*kasm.Program) {
	for k := range p {
		p[k][0] = fzKernel(fzKind(k), fzX, fzY)
		p[k][1] = fzKernel(fzKind(k), fzY, fzX)
	}
	return p
}()

// fzSpec is a decoded fuzz workload.
type fzSpec struct {
	kinds  []fzKind
	grids  []int
	slack  []uint64
	block  int
	pick   bool // the host picks each next launch from the arena
	sel    int  // the output word the host reads
	bit    uint // flip-bit selector
	seed   uint32
	budget []uint64 // per launch; nil until the golden pass sets it
}

// decodeSpec reads header bytes (launches, block, host, flip bit, four
// seed bytes) and then three bytes per launch (kind, grid, slack); missing
// bytes read as zero.
func decodeSpec(data []byte) *fzSpec {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	s := &fzSpec{
		block: 32 << (at(1) % 3),
		pick:  at(2)&1 == 1,
		sel:   int(at(2)>>1) % 64,
		bit:   uint(at(3)),
		seed:  uint32(at(4)) | uint32(at(5))<<8 | uint32(at(6))<<16 | uint32(at(7))<<24,
	}
	for k := 0; k < 2+int(at(0))%3; k++ {
		s.kinds = append(s.kinds, fzKind(at(8+3*k))%fzKinds)
		s.grids = append(s.grids, 1+int(at(9+3*k))%3)
		s.slack = append(s.slack, uint64(at(10+3*k)))
	}
	return s
}

// run executes the workload on rt and returns a copy of the final arena,
// on error too. host, when non-nil, runs after every launch, before the
// workload's own host code.
func (s *fzSpec) run(rt Runner, host func(rt Runner, after int, g []uint32)) ([]uint32, error) {
	rt = checkHost(rt)
	g := rt.Arena(fzWords)
	x := s.seed
	for i := 0; i < fzRegion; i++ {
		x = x*1664525 + 1013904223
		g[fzX+i] = x >> 22
	}
	g[fzP] = 1
	kind, grid := s.kinds[0], s.grids[0]
	for k := range s.kinds {
		dst := fzY
		if k%2 == 1 {
			dst = fzX
		}
		// At most a region's worth of threads.
		l := &emu.Launch{Prog: fzProgs[kind][k%2], Grid: min(grid, fzRegion/s.block), Block: s.block, Global: g}
		if kind == fzRev {
			l.SharedWords = s.block
		}
		if s.budget != nil {
			l.MaxDynInstrs = s.budget[k]
		}
		if err := rt.Launch(l); err != nil {
			return slices.Clone(g), err
		}
		if host != nil {
			host(rt, k, g)
		}
		if k+1 == len(s.kinds) {
			break
		}
		HostStore(rt, g, fzP, uint32(k+2))
		kind, grid = s.kinds[k+1], s.grids[k+1]
		if s.pick {
			v := g[dst+s.sel]
			kind = (kind + fzKind(v%2)) % fzKinds
			grid = 1 + (grid+int(v>>1))%3
			HostStore(rt, g, fzP, g[fzP]+v&4)
		}
	}
	return slices.Clone(g), nil
}

// launchLog is a Runner that notes each launch's program and grid.
type launchLog struct {
	Runner
	progs []*kasm.Program
	grids []int
}

func (l *launchLog) Launch(la *emu.Launch) error {
	l.progs = append(l.progs, la.Prog)
	l.grids = append(l.grids, la.Grid)
	return l.Runner.Launch(la)
}

// diverged reports whether the logged launches differ from the trace's.
func (l *launchLog) diverged(tr *Trace) bool {
	for k, p := range l.progs {
		if k >= len(tr.Launches) || p != tr.Launches[k].Prog || l.grids[k] != tr.Launches[k].Grid {
			return true
		}
	}
	return false
}

// fzCoverage counts what a payload's checks exercised.
type fzCoverage struct {
	replayed, warpReplayed, hung, lateWatchdog, diverged int
	// Lane replay's attempts: kept, rolled back on a memory conflict, on an
	// error.
	kept, conflicts, failed uint64
}

// attempts adds a player's attempt counts.
func (c *fzCoverage) attempts(p *Player) {
	c.kept += p.Attempts.Accepted
	c.conflicts += p.Attempts.Conflicts
	c.failed += p.Attempts.Errors
}

// samePlayerRun fails unless the player's run equals the plain one:
// arena, error, and the thread-instruction total.
func samePlayerRun(t *testing.T, what string, want, got []uint32, werr, err error, plainTotal uint64, p *Player) {
	t.Helper()
	if fmt.Sprint(werr) != fmt.Sprint(err) {
		t.Fatalf("%s: player ended with %v, plain run with %v", what, err, werr)
	}
	for _, sentinel := range []error{emu.ErrWatchdog, emu.ErrBadAddress, emu.ErrIllegalInstr} {
		if errors.Is(werr, sentinel) != errors.Is(err, sentinel) {
			t.Fatalf("%s: errors.Is(%v) differs: plain %v, player %v", what, sentinel, werr, err)
		}
	}
	var wle, le *emu.LaunchError
	if errors.As(werr, &wle) != errors.As(err, &le) || wle != nil && *wle != *le {
		t.Fatalf("%s: player stopped at %v, plain run at %v", what, le, wle)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: arena differs from the plain run", what)
	}
	if sum := p.Live.DynThreadInstrs + p.Skipped; sum != plainTotal {
		t.Fatalf("%s: sim %d + skipped %d = %d, the plain run executes %d",
			what, p.Live.DynThreadInstrs, p.Skipped, sum, plainTotal)
	}
}

// errUnit is the unit of launch rec in which le stopped it.
func errUnit(rec *LaunchRec, le *emu.LaunchError) int {
	if per := len(rec.Units) / rec.Grid; per > 1 {
		return le.Block*per + le.Warp
	}
	return le.Block
}

// checkPlayerVsPlain runs every check on one payload.
func checkPlayerVsPlain(t *testing.T, data []byte) fzCoverage {
	var cov fzCoverage
	s := decodeSpec(data)
	// The golden pass fixes each launch's budget: its count plus slack.
	first := NewRecorder(1<<20, fuzzCount)
	if _, err := s.run(first, nil); err != nil {
		t.Fatalf("unbudgeted golden run: %v", err)
	}
	s.budget = make([]uint64, len(s.kinds))
	for k := range s.budget {
		s.budget[k] = launchInstrs(first.Finish(), k) + s.slack[k]
	}
	golden, err := s.run(&Plain{}, nil)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	every := uint64(97 + int(s.bit)*13)
	rec := NewRecorder(every, fuzzCount)
	if out, err := s.run(rec, nil); err != nil || !slices.Equal(out, golden) {
		t.Fatalf("recorded run diverged from the golden run (err %v)", err)
	}
	tr := rec.Finish()
	pool := &Pool{}

	for target := uint64(0); target < tr.Count; target++ {
		mask := uint32(1) << ((s.bit + uint(target)*7) % 32)
		ref := &flip{target: target, mask: mask, count: fuzzCount}
		plain := &Plain{Hooks: ref.hooks()}
		log := &launchLog{Runner: plain}
		want, werr := s.run(log, nil)
		f := &flip{target: target, mask: mask, count: fuzzCount}
		p := f.player(tr, pool)
		got, err := s.run(p, nil)
		what := fmt.Sprintf("target %d mask %#x", target, mask)
		samePlayerRun(t, what, want, got, werr, err, plain.Res.DynThreadInstrs, p)
		if f.fired != ref.fired || f.old != ref.old {
			t.Fatalf("%s: player fired %v on %#x, plain run %v on %#x", what, f.fired, f.old, ref.fired, ref.old)
		}
		cov.attempts(p)

		if p.Skipped > forkAt(tr, target) {
			cov.replayed++
			if k, _ := unitOf(tr, target); len(tr.Launches[k].Units) > tr.Launches[k].Grid {
				cov.warpReplayed++
			}
		}
		if log.diverged(tr) {
			cov.diverged++
		}
		var le *emu.LaunchError
		if errors.Is(werr, emu.ErrWatchdog) && errors.As(werr, &le) {
			cov.hung++
			if k, u := unitOf(tr, target); len(log.progs)-1 == k && errUnit(&tr.Launches[k], le) > u {
				cov.lateWatchdog++
			}
		}
	}

	// Host-applied corruption right after each launch, as the tile model
	// applies it, replayed by a skip-to player.
	for last := range tr.Launches {
		word := (int(s.seed) + 97*last) % (fzP + 1)
		bit := (s.bit + uint(last)*5) % 32
		host := func(rt Runner, after int, g []uint32) {
			if after == last {
				HostStore(rt, g, word, g[word]^1<<bit)
			}
		}
		plain := &Plain{}
		want, werr := s.run(plain, host)
		p := NewPlayerSkipTo(tr, last, pool)
		got, err := s.run(p, host)
		samePlayerRun(t, fmt.Sprintf("word %d bit %d after launch %d", word, bit, last), want, got, werr, err, plain.Res.DynThreadInstrs, p)
		cov.attempts(p)
	}
	return cov
}

// playerSeedCorpus builds payloads that reach every kernel, both block
// sizes, host-picked launch sequences and tight and loose budgets. The
// same corpus seeds the fuzzer and backs the deterministic test below.
func playerSeedCorpus() [][]byte {
	payload := func(block, host, bit byte, seed uint32, launches ...[3]byte) []byte {
		p := []byte{byte(len(launches) - 2), block, host, bit,
			byte(seed), byte(seed >> 8), byte(seed >> 16), byte(seed >> 24)}
		for _, l := range launches {
			p = append(p, l[:]...)
		}
		return p
	}
	const pick = 1 | 5<<1 // the host reads output word 5
	return [][]byte{
		payload(0, 0, 0, 1, [3]byte{byte(fzMap), 2, 200}, [3]byte{byte(fzChain), 2, 200}, [3]byte{byte(fzMap), 2, 200}),
		payload(1, pick, 3, 2, [3]byte{byte(fzStoreLoad), 1, 40}, [3]byte{byte(fzGather), 2, 40}, [3]byte{byte(fzChain), 1, 40}),
		payload(0, 0, 20, 3, [3]byte{byte(fzLoop), 2, 0}, [3]byte{byte(fzLoop), 2, 30}, [3]byte{byte(fzMap), 1, 0}),
		payload(0, pick, 4, 4, [3]byte{byte(fzMap), 2, 9}, [3]byte{byte(fzLoop), 2, 9}, [3]byte{byte(fzScatter), 2, 9}, [3]byte{byte(fzRev), 1, 9}),
		payload(1, 0, 31, 5, [3]byte{byte(fzRev), 1, 255}, [3]byte{byte(fzScatter), 2, 255}),
		payload(0, pick, 6, 6, [3]byte{byte(fzGather), 0, 1}, [3]byte{byte(fzChain), 1, 1}, [3]byte{byte(fzLoop), 2, 1}),
		payload(0, 1|40<<1, 11, 7, [3]byte{byte(fzScatter), 2, 64}, [3]byte{byte(fzStoreLoad), 2, 64}, [3]byte{byte(fzGather), 1, 64}),
		// Blocks of four and two warps: warp chains inside a block, a
		// barrier kernel beside barrier-free ones, hangs under tight budgets.
		payload(2, 0, 9, 8, [3]byte{byte(fzWarpChain), 1, 200}, [3]byte{byte(fzMap), 0, 200}, [3]byte{byte(fzWarpChain), 0, 200}),
		payload(2, pick, 17, 9, [3]byte{byte(fzLoop), 1, 0}, [3]byte{byte(fzWarpChain), 0, 20}, [3]byte{byte(fzRev), 1, 20}, [3]byte{byte(fzLoop), 0, 2}),
		payload(1, 1|33<<1, 26, 10, [3]byte{byte(fzStoreLoad), 2, 5}, [3]byte{byte(fzWarpChain), 1, 5}, [3]byte{byte(fzScatter), 2, 5}, [3]byte{byte(fzGather), 2, 5}),
		payload(2, 0, 1, 11, [3]byte{byte(fzRev), 0, 90}, [3]byte{byte(fzChain), 1, 90}, [3]byte{byte(fzWarpChain), 1, 90}),
		payload(1, pick, 13, 12, [3]byte{byte(fzBarrier), 1, 50}, [3]byte{byte(fzWarpChain), 2, 50}, [3]byte{byte(fzBarrier), 0, 50}),
		// Lane replay: fzHop after kernels whose corrupted outputs it loads,
		// so attempts are kept, conflict and fail.
		payload(0, 0, 24, 13, [3]byte{byte(fzMap), 2, 200}, [3]byte{byte(fzHop), 2, 200}, [3]byte{byte(fzHop), 1, 200}),
		payload(2, 0, 25, 14, [3]byte{byte(fzMap), 1, 60}, [3]byte{byte(fzHop), 0, 60}, [3]byte{byte(fzGather), 0, 60}, [3]byte{byte(fzHop), 1, 60}),
		payload(1, pick, 30, 15, [3]byte{byte(fzChain), 1, 9}, [3]byte{byte(fzHop), 2, 9}, [3]byte{byte(fzLoop), 1, 9}, [3]byte{byte(fzHop), 0, 9}),
	}
}

func FuzzPlayerVsPlain(f *testing.F) {
	for _, seed := range playerSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPlayerVsPlain(t, data)
	})
}

// TestPlayerVsPlainCorpus runs the fuzz corpus on every plain `go test`,
// and requires it to exercise post-fault replay, in blocks of several
// warps too, hangs, a watchdog that a later unit of the faulting launch
// trips, launch sequences a fault changed, and lane replay's attempts:
// kept, rolled back on a memory conflict and rolled back on an error.
func TestPlayerVsPlainCorpus(t *testing.T) {
	var total fzCoverage
	for i, seed := range playerSeedCorpus() {
		t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) {
			c := checkPlayerVsPlain(t, seed)
			total.replayed += c.replayed
			total.warpReplayed += c.warpReplayed
			total.hung += c.hung
			total.lateWatchdog += c.lateWatchdog
			total.diverged += c.diverged
			total.kept += c.kept
			total.conflicts += c.conflicts
			total.failed += c.failed
		})
	}
	t.Logf("targets with a post-fault replay %d (in a block of several warps %d), hung %d, hung in a later unit %d, with a changed launch sequence %d",
		total.replayed, total.warpReplayed, total.hung, total.lateWatchdog, total.diverged)
	t.Logf("lane replay attempts kept %d, rolled back on a memory conflict %d, on an error %d",
		total.kept, total.conflicts, total.failed)
	if total.replayed == 0 || total.warpReplayed == 0 || total.hung == 0 || total.lateWatchdog == 0 || total.diverged == 0 ||
		total.kept == 0 || total.conflicts == 0 || total.failed == 0 {
		t.Errorf("corpus coverage %+v: every count must be positive", total)
	}
}
