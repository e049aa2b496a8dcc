// Package replay captures and fast-forwards multi-launch workload
// executions on the functional emulator.
//
// The software fault injector re-executes its workload once per injection
// with a Post hook armed at a single dynamic instruction. A Recorder runs
// the golden execution once, keeping evenly spaced checkpoints (an
// emulator Snapshot and the words its launch had stored) and, for every
// unit of replay of every launch, what the unit did: the words it stored
// (with their values at its end), its instruction counts, and its inputs
// — the words it loaded before storing to them, with the values loaded.
// The unit is the warp in a launch whose program has no BAR and no
// shared-memory access (a barrier-free launch, see emu.Launch.Replay), the
// block otherwise. A Player then reproduces a faulty execution simulating
// only what the fault can reach:
//
//   - launches that end before the fork point apply their units' writes;
//   - the fork point is the later of the nearest checkpoint and the start
//     of the unit that holds the target instruction; the units of that
//     launch before it apply their writes too, the arena being golden;
//   - hooks stay inert (emu.Hooks countdown) until just before the target;
//   - after the fault, any unit whose launch matches the recorded launch
//     and whose recorded inputs still hold their recorded values applies
//     its writes instead of running (unit replay); in a lane-safe launch
//     (emu.LaneSafe) a warp whose inputs fail runs only the lanes that
//     loaded a changed word, and applies the writes of the others (lane
//     replay).
//
// Unit replay is exact. A block starts with fresh registers and zeroed
// shared memory, and blocks run one after another, so while a block runs
// only it writes global memory: what it does depends on the program, the
// launch geometry, its index and the global words it loads. If every word
// it loads before storing to it holds its golden value, it executes
// instruction for instruction as recorded. Without a barrier every warp of
// a block runs to completion in its first turn, so the warps run one after
// another from fresh registers, and without shared memory they exchange
// nothing but global words: the same argument holds one level down, for a
// warp and the words it loads before storing to them itself — a word an
// earlier warp of its block stored is one of its inputs. That holds
// whatever host code did between launches; a faulty run whose host
// launches a different program or grid at some launch index simply fails
// the launch match. A unit is replayed only while the launch's count stays
// within its watchdog budget, so a hang still fails where it would.
//
// Why a replayed lane is exact. In a lane-safe launch no guard depends on a
// loaded word, so every lane executes, and counts, the instructions its
// thread and block index choose, whatever it loads; the ISA has no
// cross-lane operation. The Recorder keeps, for each warp of such a launch,
// the lanes that loaded each input and the one lane that stored each
// written word — a warp in which two lanes touch a stored word keeps warp
// granularity. Let S be the lanes that loaded a changed input and R the
// others: R loads only intact inputs and its own stores, so R runs as
// recorded. The warp runs as an attempt with only S live, which follows
// each S lane's recorded path in the full run's order, and is kept when it
// ended without error, stored into no input or written word of R and
// loaded no word R writes: then the full run, R and S interleaved, writes
// what the attempt wrote plus R's recorded writes, and counts the warp's
// recorded count. Otherwise the emulator undoes the attempt and the warp
// runs whole, so a conflict or a fault in S lands where a full run puts it.
//
// Why a checkpoint needs only its launch's stores. An emu.Snapshot holds
// no global memory, so a Checkpoint keeps Delta: every word its launch
// stored before the capture, with its value at capture. A Player reaches
// the checkpoint's launch with the arena a full run has when that launch
// starts — earlier launches applied their writes, host code re-ran, and
// no fault has fired yet. Blocks, and in a barrier-free launch warps, run
// one after another and only global stores change the arena, so at the
// capture the arena is that starting image with each word the launch
// stored so far set to its current value: applying Delta rebuilds it
// exactly. A word stored by several units is listed once, with the value
// the latest store left.
//
// Why a unit's inputs are compared only when the fault can reach them. From
// the fault on, a Pool keeps D′, a bitmap of the arena words that may
// differ from the golden run's at the same point; let D be those that do.
// Before the fault D is empty: every launch and unit so far is golden, and
// so is every host write, which is why a Player ignores those. After it,
// every way a word can leave its golden value puts the word in D′, so D ⊆
// D′ at every unit boundary:
//
//   - a store: the emulator adds every store of a launch the Player runs to
//     D′, a store-only emu.MemTrace (corrupted stores, and attempts later
//     undone, included);
//   - a golden store the faulty run skips, behind a corrupted guard or at a
//     corrupted address: when a unit runs, whole or as a kept attempt, each
//     word of its recorded writes joins D′ unless it holds the value the
//     golden unit left, and then leaves D′, since the golden arena holds
//     that value there after the unit; a launch that fails adds the writes
//     of its units from the failing one on, and a launch that does not
//     match its record adds every write of the golden launch at its
//     ordinal;
//   - a host write: HostStore adds its word, and HostCopy gives each word it
//     copies to the source word's place in D′ — exact, because the golden
//     host made the same copy (the Runner rule).
//
// A replayed unit stores golden values only. So a unit whose input runs
// miss D′ loaded golden values and replays without a compare; only a unit
// whose runs meet D′ has its input values compared (Inputs.changed). A
// matching launch that starts after the fault with D′ empty applies its
// record whole, since every unit of it would replay. D′ is cleared per
// injection in time proportional to what it marked.
//
// Host code between launches re-executes normally in all modes; the arena
// it sees is the one a full run would show it.
package replay

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"gpufi/internal/emu"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// Runner abstracts how a workload executes: it allocates the workload's
// global-memory arena and runs its kernel launches. Workloads written
// against Runner can be executed directly (Plain), recorded (Recorder) or
// fast-forwarded (Player) without knowing which.
//
// Host code has one rule: between its first launch and its last it writes
// the arena only through HostStore and HostCopy, and which copies it makes
// and which words it stores to must not depend on what the launches
// computed — the values it stores may, and an injection run may store to
// more words, as the tile model's corruption does. Setting up the arena
// before the first launch needs no declaration. The Player's replay filter
// relies on the rule (see the package comment).
type Runner interface {
	// Arena allocates the global-memory image. Called exactly once per
	// execution, before any Launch.
	Arena(words int) []uint32
	// Launch executes one kernel launch whose Global aliases the arena.
	// The Runner owns Launch.Hooks; callers leave it zero.
	Launch(l *emu.Launch) error
}

// HostWriter is implemented by a Runner that tracks host writes, as the
// Player does; HostStore and HostCopy declare theirs to it. HostWrote
// reports that host code set the n arena words from dst: copied from the
// n words from src, or, when src < 0, stored.
type HostWriter interface {
	HostWrote(dst, src, n int)
}

// HostStore sets arena word i to v for host code and declares the write to
// rt.
func HostStore(rt Runner, g []uint32, i int, v uint32) {
	g[i] = v
	if h, ok := rt.(HostWriter); ok {
		h.HostWrote(i, -1, 1)
	}
}

// HostCopy copies the n arena words from src to dst, as copy does, for
// host code and declares the write to rt.
func HostCopy(rt Runner, g []uint32, dst, src, n int) {
	copy(g[dst:dst+n], g[src:src+n])
	if h, ok := rt.(HostWriter); ok {
		h.HostWrote(dst, src, n)
	}
}

// Plain is the pass-through Runner: fresh arena, every launch executed
// with the configured hooks, Result counters accumulated across launches.
type Plain struct {
	Hooks emu.Hooks
	Res   emu.Result

	// Deprecated: ignored; kept until bench/ stops setting it (ROADMAP 1(a)/2(b)).
	NoFastPath bool
}

// Arena implements Runner.
func (p *Plain) Arena(words int) []uint32 { return make([]uint32, words) }

// Launch implements Runner.
func (p *Plain) Launch(l *emu.Launch) error {
	l.Hooks = p.Hooks
	res, err := emu.Run(l)
	addResult(&p.Res, &res)
	return err
}

func addResult(dst, src *emu.Result) {
	dst.DynThreadInstrs += src.DynThreadInstrs
	for op, n := range src.PerOpcode {
		dst.PerOpcode[op] += n
	}
}

// Delta is one word of the global-memory arena and its value.
type Delta struct {
	Idx uint32
	Val uint32
}

// LaunchRec describes one recorded launch: the launch description a
// replayed launch must match, and its units of replay in execution order.
type LaunchRec struct {
	Prog         *kasm.Program
	Grid         int
	Block        int
	SharedWords  int
	MaxDynInstrs uint64

	// CumInstrs / CumCount are the workload-cumulative thread-instruction
	// and countable-thread-instruction totals after the launch.
	CumInstrs uint64
	CumCount  uint64

	// Units holds one record per block, or, in a barrier-free launch, one per
	// warp of every block.
	Units []UnitRec
}

// matches reports whether l is the launch rec recorded.
func (rec *LaunchRec) matches(l *emu.Launch) bool {
	return l.Prog == rec.Prog && l.Grid == rec.Grid && l.Block == rec.Block &&
		l.SharedWords == rec.SharedWords && l.MaxDynInstrs == rec.MaxDynInstrs
}

// apply stores the writes of every unit of the launch: the launch's effect
// on its golden pre-image.
func (rec *LaunchRec) apply(g []uint32) {
	for i := range rec.Units {
		rec.Units[i].apply(g)
	}
}

// unit returns the index of the unit emu offers as (block, warp): a
// barrier-free launch records len(Units)/Grid warps per block, another one
// block unit, with warp -1.
func (rec *LaunchRec) unit(block, warp int) int {
	return block*(len(rec.Units)/rec.Grid) + max(warp, 0)
}

// UnitRec describes one unit of a recorded launch: a block, or a warp.
type UnitRec struct {
	// Writes is every word the unit stored to, changed or not, with its
	// value at the unit's end, in ascending word order.
	Writes []Delta
	// Owner holds, when In.Lanes is set, the lane that stored each word of
	// Writes — the only lane that loaded or stored it.
	Owner []uint8
	// Instrs / Count are the launch-local thread-instruction and countable
	// thread-instruction counts after the unit.
	Instrs uint64
	Count  uint64
	// In holds the unit's inputs.
	In Inputs
}

func (ur *UnitRec) apply(g []uint32) { store(g, ur.Writes) }

// store sets each word of ds in g to its value.
func store(g []uint32, ds []Delta) {
	for _, d := range ds {
		g[d.Idx] = d.Val
	}
}

// Inputs is the set of words a unit loaded before storing to them, with
// the values loaded: runs of consecutive word indices, in ascending order,
// and their values concatenated. Lanes, set only for a warp that lane
// replay may split, holds the mask of lanes that loaded each word.
type Inputs struct {
	Runs  []Run
	Vals  []uint32
	Lanes []uint32
}

// Run is Len consecutive arena words from Start.
type Run struct{ Start, Len uint32 }

// changed returns the lanes that loaded an input g no longer holds — all
// of them for a unit recorded without its lanes — and offs refilled with
// each run's offset into Vals.
func (in *Inputs) changed(g []uint32, offs []uint32) (uint32, []uint32) {
	var s, o uint32
	offs = offs[:0]
	for _, r := range in.Runs {
		offs = append(offs, o)
		if now := g[r.Start : r.Start+r.Len]; !slices.Equal(now, in.Vals[o:o+r.Len]) {
			if in.Lanes == nil {
				return ^uint32(0), offs
			}
			for i, v := range now {
				if v != in.Vals[o+uint32(i)] {
					s |= in.Lanes[o+uint32(i)]
				}
			}
		}
		o += r.Len
	}
	return s, offs
}

// lanesAt returns the lanes that loaded input word idx, 0 for a word that
// is no input; offs is changed's.
func (in *Inputs) lanesAt(idx uint32, offs []uint32) uint32 {
	r, ok := slices.BinarySearchFunc(in.Runs, idx, func(r Run, idx uint32) int {
		switch {
		case r.Start+r.Len <= idx:
			return -1
		case r.Start > idx:
			return 1
		}
		return 0
	})
	if !ok {
		return 0
	}
	return in.Lanes[offs[r]+idx-in.Runs[r].Start]
}

// inputs compacts the running unit's loads into Inputs; lanes, when
// non-nil, is the MemTrace's per-word lane masks. The loads are sorted as
// packed address-value keys, which is several times faster than sorting
// the Load records with a comparison function.
func (r *Recorder) inputs(lanes []uint32) Inputs {
	loads := r.mem.Inputs
	if len(loads) == 0 {
		return Inputs{}
	}
	keys := r.keys[:0]
	for _, l := range loads {
		keys = append(keys, uint64(l.Addr)<<32|uint64(l.Val))
	}
	slices.Sort(keys)
	r.keys = keys
	in := Inputs{Vals: make([]uint32, len(keys))}
	if lanes != nil {
		in.Lanes = make([]uint32, len(keys))
	}
	for i, k := range keys {
		addr := uint32(k >> 32)
		in.Vals[i] = uint32(k)
		if lanes != nil {
			in.Lanes[i] = lanes[addr]
		}
		if n := len(in.Runs); n > 0 && in.Runs[n-1].Start+in.Runs[n-1].Len == addr {
			in.Runs[n-1].Len++
		} else {
			in.Runs = append(in.Runs, Run{Start: addr, Len: 1})
		}
	}
	return in
}

// Checkpoint anchors a mid-launch emulator snapshot in workload-global
// coordinates.
type Checkpoint struct {
	Launch    int
	Snap      *emu.Snapshot
	CumInstrs uint64 // workload-cumulative thread-instructions at capture
	CumCount  uint64 // workload-cumulative countable instructions at capture
	// Delta is every word the launch stored before the capture, each once,
	// with its value at capture: applied to the arena as the launch
	// starts, it gives the arena at capture (see the package comment).
	Delta []Delta
}

// Trace is the sealed record of one golden execution. It is immutable
// after Recorder.Finish, so any number of Players (including concurrent
// ones) can replay from it.
type Trace struct {
	Words    int // arena size the workload requested
	Launches []LaunchRec
	Ckpts    []Checkpoint
	Instrs   uint64 // total thread-instructions of the execution
	Count    uint64 // total countable thread-instructions

	// Deprecated: the dead-site index of liveness.go, which no engine builds
	// or reads; kept for bench/'s two liveness probes (ROADMAP 1(a)/2(c)).
	Live *Liveness

	count func(isa.Opcode) bool
}

// countable totals a launch-local PerOpcode breakdown under the trace's
// countable predicate.
func (tr *Trace) countable(per *[isa.NumOpcodes]uint64) uint64 {
	var t uint64
	for op, n := range per {
		if n != 0 && tr.count(isa.Opcode(op)) {
			t += n
		}
	}
	return t
}

// cumBefore returns the (total, countable) cumulative counts before
// launch ord.
func (tr *Trace) cumBefore(ord int) (uint64, uint64) {
	if ord == 0 {
		return 0, 0
	}
	rec := &tr.Launches[ord-1]
	return rec.CumInstrs, rec.CumCount
}

// Recorder is the Runner that produces a Trace: it executes every launch
// hook-free while capturing evenly spaced snapshots and per-unit records.
// count classifies the opcodes an injector counts (and targets); it
// parameterises the trace's countable coordinates.
type Recorder struct {
	tr     *Trace
	every  uint64
	g      []uint32
	nextCk uint64
	mem    emu.MemTrace // the running unit's stores and inputs
	lanes  []uint32     // mem.Lanes in lane-safe launches, made at the first one
	keys   []uint64     // inputs' sort buffer

	// stored marks, and storedIdx lists, the words the running launch's
	// finished units stored: with mem, what a checkpoint's Delta holds.
	stored    []uint64
	storedIdx []uint32

	// Liveness capture (CaptureLiveness): a Post hook recording the event
	// stream for the backward dead-site scan, plus per-launch end marks.
	capture func(*emu.Event)
	lvc     *liveCapture
}

// NewRecorder builds a Recorder snapshotting every `every`
// thread-instructions (minimum 1).
func NewRecorder(every uint64, count func(isa.Opcode) bool) *Recorder {
	if every == 0 {
		every = 1
	}
	return &Recorder{tr: &Trace{count: count}, every: every, nextCk: every}
}

// Arena implements Runner.
func (r *Recorder) Arena(words int) []uint32 {
	if r.g != nil {
		panic("replay: Arena called twice in one execution")
	}
	r.g = make([]uint32, words)
	r.mem.Writes = make([]uint64, (words+63)/64)
	r.mem.Loaded = make([]uint64, (words+63)/64)
	r.stored = make([]uint64, (words+63)/64)
	r.tr.Words = words
	return r.g
}

// Launch implements Runner.
func (r *Recorder) Launch(l *emu.Launch) error {
	ord := len(r.tr.Launches)
	base, baseCount := r.tr.Instrs, r.tr.Count
	l.Hooks = emu.Hooks{Post: r.capture}
	// r.mem holds one unit's stores and inputs and is cleared at the
	// unit's end, so a unit's record is read off its own marks, with no
	// pass over the arena or the bitmaps — and a warp's inputs include the
	// words earlier warps of its block stored.
	mt := &r.mem
	l.Mem = mt
	mt.Lanes = nil
	if emu.LaneSafe(l.Prog) {
		if r.lanes == nil {
			r.lanes = make([]uint32, len(r.g))
		}
		mt.Lanes = r.lanes
	}
	for _, i := range r.storedIdx {
		r.stored[i>>6] = 0
	}
	r.storedIdx = r.storedIdx[:0]
	var units []UnitRec
	l.BlockDone = func(_, _ int, res *emu.Result) bool {
		// Ascending chunks give ascending writes. A warp keeps its lanes
		// only while every word it stored has one lane touching it.
		slices.Sort(mt.Touched)
		var written []Delta
		var owner []uint8
		lanes := mt.Lanes
		for _, k := range mt.Touched {
			for m := mt.Writes[k] &^ r.stored[k]; m != 0; m &= m - 1 {
				r.storedIdx = append(r.storedIdx, uint32(k)<<6+uint32(bits.TrailingZeros64(m)))
			}
			r.stored[k] |= mt.Writes[k]
			for m := mt.Writes[k]; m != 0; m &= m - 1 {
				i := int(k)<<6 + bits.TrailingZeros64(m)
				written = append(written, Delta{Idx: uint32(i), Val: r.g[i]})
				if lanes == nil {
					continue
				}
				if ln := lanes[i]; ln&(ln-1) == 0 {
					owner = append(owner, uint8(bits.TrailingZeros32(ln)))
				} else {
					lanes = nil
				}
			}
		}
		in := r.inputs(lanes)
		if in.Lanes == nil {
			owner = nil
		}
		units = append(units, UnitRec{
			Writes: written,
			Owner:  owner,
			Instrs: res.DynThreadInstrs,
			Count:  r.tr.countable(&res.PerOpcode),
			In:     in,
		})
		mt.Clear()
		return true
	}
	// nextCk is global; the emulator counts per launch. nextCk > base
	// always holds (it is bumped past the cumulative total after every
	// launch), so the launch-local first boundary is their difference.
	res, err := emu.RunCheckpointed(l, r.nextCk-base, r.every, func(s *emu.Snapshot) {
		sr := s.Res()
		r.tr.Ckpts = append(r.tr.Ckpts, Checkpoint{
			Launch:    ord,
			Snap:      s,
			CumInstrs: base + sr.DynThreadInstrs,
			CumCount:  baseCount + r.tr.countable(&sr.PerOpcode),
			Delta:     r.delta(),
		})
	})
	if err != nil {
		return err
	}
	r.tr.Instrs = base + res.DynThreadInstrs
	r.tr.Count = baseCount + r.tr.countable(&res.PerOpcode)
	r.tr.Launches = append(r.tr.Launches, LaunchRec{
		Prog: l.Prog, Grid: l.Grid, Block: l.Block, SharedWords: l.SharedWords, MaxDynInstrs: l.MaxDynInstrs,
		CumInstrs: r.tr.Instrs,
		CumCount:  r.tr.Count,
		Units:     units,
	})
	r.endLaunch(l)
	for r.nextCk <= r.tr.Instrs {
		r.nextCk += r.every
	}
	return nil
}

// delta returns, at a capture, every word the running launch stored so
// far with its value now: the words of its finished units, then those only
// the running unit stored. Values come from the arena, not the unit
// records, which a later store to the same word makes stale.
func (r *Recorder) delta() []Delta {
	mt := &r.mem
	n := len(r.storedIdx)
	for _, k := range mt.Touched {
		n += bits.OnesCount64(mt.Writes[k] &^ r.stored[k])
	}
	d := make([]Delta, 0, n)
	for _, i := range r.storedIdx {
		d = append(d, Delta{Idx: i, Val: r.g[i]})
	}
	for _, k := range mt.Touched {
		for m := mt.Writes[k] &^ r.stored[k]; m != 0; m &= m - 1 {
			i := int(k)<<6 + bits.TrailingZeros64(m)
			d = append(d, Delta{Idx: uint32(i), Val: r.g[i]})
		}
	}
	return d
}

// Finish seals and returns the trace.
func (r *Recorder) Finish() *Trace { return r.tr }

// Pool is a per-worker reusable arena buffer and attempt log. Players
// attached to the same Pool (sequentially — a Pool is not safe for
// concurrent use) reuse one allocation instead of allocating a fresh arena
// per replay.
type Pool struct {
	buf  []uint32
	att  emu.Attempt // the running attempt's accesses
	offs []uint32    // the attempted unit's input run offsets (Inputs.changed)
	// reach is D′, the words that may differ from golden (see the package
	// comment): a store-only trace, so the emulator adds the stores of
	// every launch the Player runs. Every non-zero word of its bitmap is
	// listed in Touched.
	reach emu.MemTrace
}

// Player is the fast-forwarding Runner; see the package comment. In
// countdown mode instrumentation stays inert until just before the target
// countable instruction.
type Player struct {
	tr    *Trace
	hooks emu.Hooks
	prime func(countDone uint64)
	fired func() bool // nil: the fault is applied before the first launch that runs

	ord int
	// start is the first launch that runs; earlier ones apply their writes.
	// It forks from ck when ck is set. Before the fault, its units before
	// startUnit replay without a compare.
	start     int
	startUnit int
	ck        *Checkpoint
	replays   bool   // unit replay is on (off for NewPlayerAt)
	armG      uint64 // arming threshold in workload-cumulative thread-instructions
	armed     bool
	g         []uint32

	// rep / repCount are the thread- and countable thread-instructions the
	// running launch replayed. An accepted attempt adds to rep only:
	// repCount matters before the countdown arms, and attempts come after.
	rep, repCount uint64

	pool *Pool
	// rec is the running launch's record while the launch matches it, and
	// cur its latest unit: the one a Resume continues, then the last one
	// offered to Replay.
	rec *LaunchRec
	cur int
	// budget is the running launch's watchdog budget; replayFn and doneFn
	// are replayUnit and attemptDone, bound once rather than per launch.
	budget   uint64
	replayFn func(int, int, *emu.Result) uint32
	doneFn   func(int, int, *emu.Result) bool
	// try is the unit Replay last split: the lanes the attempt runs, its
	// golden count and the launch's count before it.
	try struct {
		s        uint32
		n, start uint64
	}

	// Live accumulates the portion actually simulated; Skipped counts the
	// thread-instructions provably avoided (launches and units replayed
	// from their records, restored snapshot prefixes). Live.DynThreadInstrs
	// + Skipped equals a full run's total.
	Live    emu.Result
	Skipped uint64
	// Attempts counts lane replay's attempts: those kept, and those rolled
	// back on a memory conflict or an error.
	Attempts struct{ Accepted, Conflicts, Errors uint64 }
	// Reach counts what D′ decided after the fault: units whose inputs it
	// reached, so their values were compared (Inputs.changed); units it
	// did not reach, replayed without a compare; and matching launches
	// that started with D′ empty and applied their records whole.
	Reach struct{ Compared, Filtered, Whole uint64 }
}

// NewPlayer builds a Player that arms hooks just before the target-th
// (0-based) countable thread-instruction of the recorded execution.
// prime, when non-nil, is called once at arming time with the number of
// countable instructions already executed, so the caller's counter picks
// up exactly where the uninstrumented prefix left off. fired, when
// non-nil, reports that the caller's instrumentation is done firing;
// later units then run fully uninstrumented or replay.
func NewPlayer(tr *Trace, target uint64, hooks emu.Hooks, prime func(countDone uint64), fired func() bool, pool *Pool) *Player {
	p := &Player{tr: tr, hooks: hooks, prime: prime, fired: fired, replays: true}
	// Fork point: the later of the latest checkpoint at or before the
	// target and the start of the target's unit. The countdown threshold
	// is re-based on it, so arming happens at most one unit's or
	// checkpoint interval's worth of non-countable instructions early.
	var baseTot, baseCnt uint64
	i := sort.Search(len(tr.Ckpts), func(i int) bool { return tr.Ckpts[i].CumCount > target }) - 1
	if k := sort.Search(len(tr.Launches), func(k int) bool { return tr.Launches[k].CumCount > target }); k < len(tr.Launches) {
		rec := &tr.Launches[k]
		units := rec.Units
		baseTot, baseCnt = tr.cumBefore(k)
		u := sort.Search(len(units), func(u int) bool { return baseCnt+units[u].Count > target })
		if u > 0 {
			baseTot += units[u-1].Instrs
			baseCnt += units[u-1].Count
		}
		p.start, p.startUnit = k, u
		if i >= 0 && tr.Ckpts[i].Launch == k && rec.unit(tr.Ckpts[i].Snap.Block(), tr.Ckpts[i].Snap.Warp()) == u {
			p.ck = &tr.Ckpts[i]
		}
	} else if i >= 0 {
		// The target lies outside the trace: fork from the last checkpoint.
		p.ck = &tr.Ckpts[i]
		p.start = p.ck.Launch
	}
	if p.ck != nil {
		baseTot, baseCnt = p.ck.CumInstrs, p.ck.CumCount
	}
	p.armG = baseTot + (target - baseCnt)
	p.attach(pool)
	return p
}

// NewPlayerSkipTo builds a Player that fast-forwards launches 0..lastSkipped
// by applying their writes and runs the remainder uninstrumented, replaying
// every unit whose inputs the corruption left intact — the replay mode for
// corruption applied by host code right after launch lastSkipped (e.g. the
// CNN tile model).
func NewPlayerSkipTo(tr *Trace, lastSkipped int, pool *Pool) *Player {
	p := &Player{tr: tr, armed: true, replays: true, start: min(lastSkipped+1, len(tr.Launches))}
	p.attach(pool)
	return p
}

// NewPlayerAt builds an uninstrumented Player that forks from checkpoint
// index ck exactly and then simulates everything, replaying no unit; used
// to property-test snapshot/resume determinism.
func NewPlayerAt(tr *Trace, ck int, pool *Pool) *Player {
	p := &Player{tr: tr, armed: true}
	if ck >= 0 && ck < len(tr.Ckpts) {
		p.ck = &tr.Ckpts[ck]
		p.start = p.ck.Launch
	}
	p.attach(pool)
	return p
}

func (p *Player) attach(pool *Pool) {
	if pool == nil {
		pool = &Pool{}
	}
	if len(pool.buf) != p.tr.Words {
		pool.buf = make([]uint32, p.tr.Words)
		pool.reach = emu.MemTrace{Writes: make([]uint64, (p.tr.Words+63)/64)}
	}
	pool.reach.Clear()
	p.g, p.pool = pool.buf, pool
	p.replayFn, p.doneFn = p.replayUnit, p.attemptDone
}

// Arena implements Runner. The pooled buffer is zeroed so replays see the
// same pristine arena a fresh allocation would provide.
func (p *Player) Arena(words int) []uint32 {
	if words != p.tr.Words {
		panic(fmt.Sprintf("replay: workload requested %d arena words, trace recorded %d", words, p.tr.Words))
	}
	clear(p.g)
	return p.g
}

// Launch implements Runner.
func (p *Player) Launch(l *emu.Launch) error {
	ord := p.ord
	p.ord++
	var rec *LaunchRec
	if ord < len(p.tr.Launches) {
		rec = &p.tr.Launches[ord]
	}
	if ord < p.start {
		p.applyWhole(rec, ord)
		return nil
	}
	match := p.replays && rec != nil && rec.matches(l)
	if match && (ord > p.start || p.ck == nil) && p.done() && p.unreached() {
		// The arena is golden and the fault is spent: every unit would
		// replay.
		p.Reach.Whole++
		p.applyWhole(rec, ord)
		return nil
	}
	l.Hooks = p.liveHooks(ord)
	l.Mem, l.BlockDone, l.Replay, l.Attempt = nil, nil, nil, nil
	if p.replays {
		l.Mem = &p.pool.reach
		p.rec = nil
		if match {
			p.rec, p.cur, p.budget = rec, 0, cmp.Or(l.MaxDynInstrs, emu.DefaultMaxDynInstrs)
			l.Replay, l.BlockDone, l.Attempt = p.replayFn, p.doneFn, &p.pool.att
		} else if rec != nil {
			p.markUnits(rec.Units) // the golden launch stored these; this one may not
		}
	}
	p.rep, p.repCount = 0, 0
	var res, prefix emu.Result
	var err error
	if p.ck != nil && ord == p.start {
		if p.rec != nil {
			p.cur = p.rec.unit(p.ck.Snap.Block(), p.ck.Snap.Warp())
		}
		store(l.Global, p.ck.Delta)
		prefix = p.ck.Snap.Res()
		res, err = emu.Resume(l, p.ck.Snap)
	} else {
		res, err = emu.Run(l)
	}
	p.Skipped += prefix.DynThreadInstrs + p.rep
	p.Live.DynThreadInstrs += res.DynThreadInstrs - prefix.DynThreadInstrs - p.rep
	for op := range res.PerOpcode {
		p.Live.PerOpcode[op] += res.PerOpcode[op] - prefix.PerOpcode[op]
	}
	if err != nil && p.rec != nil {
		p.markUnits(p.rec.Units[p.cur:]) // the failed unit and those never run
	}
	return err
}

// applyWhole applies launch ord's record in place of running it.
func (p *Player) applyWhole(rec *LaunchRec, ord int) {
	rec.apply(p.g)
	prev, _ := p.tr.cumBefore(ord)
	p.Skipped += rec.CumInstrs - prev
}

// done reports whether the fault is done: a countdown player's
// instrumentation has fired, and a player without one applies its
// corruption, if any, before the first launch that runs.
func (p *Player) done() bool { return p.fired == nil || p.fired() }

// replayUnit is the emu.Launch.Replay of a launch that matches its record,
// p.rec. Before the fault only the fork launch's units before the target's
// unit replay, the arena being golden; after it, every unit whose inputs
// hold, and a warp recorded with its lanes runs only the lanes that loaded
// a changed input. None of these replays a unit that would take the launch
// past its watchdog budget.
func (p *Player) replayUnit(b, w int, res *emu.Result) uint32 {
	const all = ^uint32(0)
	units := p.rec.Units
	u := p.rec.unit(b, w)
	ur := &units[u]
	p.cur = u
	n, c := ur.Instrs, ur.Count
	if u > 0 {
		n -= units[u-1].Instrs
		c -= units[u-1].Count
	}
	if res.DynThreadInstrs+n > p.budget {
		return all
	}
	if p.done() {
		if s := p.split(ur, n, res); s != 0 {
			return s
		}
	} else if p.ord-1 != p.start || u >= p.startUnit { // p.ord-1 is the running launch
		return all
	}
	ur.apply(p.g)
	res.DynThreadInstrs += n
	p.rep += n
	p.repCount += c
	return 0
}

// split returns the lanes of unit ur that loaded an input the arena no
// longer holds (Inputs.changed), 0 when there are none, and readies the
// attempt that runs only them: its load window spans the unit's writes.
// Only a unit whose input runs meet D′ has its values compared.
func (p *Player) split(ur *UnitRec, n uint64, res *emu.Result) uint32 {
	if !p.reaches(&ur.In) {
		p.Reach.Filtered++
		return 0
	}
	p.Reach.Compared++
	var s uint32
	s, p.pool.offs = ur.In.changed(p.g, p.pool.offs)
	if s == 0 {
		return 0
	}
	a := &p.pool.att
	a.Lo, a.Hi = 0, 0
	if k := len(ur.Writes); k > 0 {
		a.Lo, a.Hi = ur.Writes[0].Idx, ur.Writes[k-1].Idx+1
	}
	p.try.s, p.try.n, p.try.start = s, n, res.DynThreadInstrs
	return s
}

// attemptDone is the emu.Launch.BlockDone of a launch replayUnit replays. It
// keeps an attempt that ended without error and touched nothing the warp's
// other lanes own: it applies their writes and charges the warp's golden
// count. Otherwise the emulator undoes the attempt and runs the warp whole.
// A unit that ran, whole or as a kept attempt, settles D′.
func (p *Player) attemptDone(b, w int, res *emu.Result) bool {
	ur := &p.rec.Units[p.rec.unit(b, w)]
	if a := &p.pool.att; a.Lanes != 0 {
		t := &p.try
		switch {
		case a.Err != nil:
			p.Attempts.Errors++
			return false
		case ur.conflicts(a, t.s, p.pool.offs):
			p.Attempts.Conflicts++
			return false
		}
		for j, d := range ur.Writes {
			if t.s>>ur.Owner[j]&1 == 0 {
				p.g[d.Idx] = d.Val
			}
		}
		rest := t.n - (res.DynThreadInstrs - t.start)
		res.DynThreadInstrs += rest
		p.rep += rest
		p.Attempts.Accepted++
	}
	p.settle(ur)
	return true
}

// mark adds word i to D′.
func (p *Player) mark(i uint32) {
	r := &p.pool.reach
	if r.Writes[i>>6] == 0 {
		r.Touched = append(r.Touched, int32(i>>6))
	}
	r.Writes[i>>6] |= 1 << (i & 63)
}

// markUnits adds every word the golden units stored to D′.
func (p *Player) markUnits(units []UnitRec) {
	for i := range units {
		for _, d := range units[i].Writes {
			p.mark(d.Idx)
		}
	}
}

// settle updates D′ after unit ur ran: each word the golden unit stored
// leaves D′ when it holds the value the unit left and joins it otherwise,
// since a corrupted guard or address can skip a golden store. What the
// unit stored elsewhere, the emulator already added.
func (p *Player) settle(ur *UnitRec) {
	bm := p.pool.reach.Writes
	for _, d := range ur.Writes {
		if p.g[d.Idx] != d.Val {
			p.mark(d.Idx)
		} else {
			bm[d.Idx>>6] &^= 1 << (d.Idx & 63)
		}
	}
}

// unreached reports whether D′ is empty, first dropping the bitmap words
// settles emptied from its list.
func (p *Player) unreached() bool {
	r := &p.pool.reach
	r.Touched = slices.DeleteFunc(r.Touched, func(k int32) bool { return r.Writes[k] == 0 })
	return len(r.Touched) == 0
}

// reaches reports whether an input run of in holds a word of D′.
func (p *Player) reaches(in *Inputs) bool {
	bm := p.pool.reach.Writes
	for _, run := range in.Runs {
		for k := run.Start >> 6; k <= (run.Start+run.Len-1)>>6; k++ {
			if bm[k] != 0 && bm[k]&span(k, run) != 0 {
				return true
			}
		}
	}
	return false
}

// span returns the bits of bitmap word k that stand for words of run.
func span(k uint32, run Run) uint64 {
	m := ^uint64(0)
	if run.Start > k<<6 {
		m <<= run.Start & 63
	}
	if end := run.Start + run.Len; end < (k+1)<<6 {
		m &= ^uint64(0) >> (64 - end&63)
	}
	return m
}

// HostWrote implements HostWriter. Before the fault the arena is golden,
// and so is what host code writes into it: D′ changes only after it.
func (p *Player) HostWrote(dst, src, n int) {
	if !p.replays || !p.done() {
		return
	}
	r := &p.pool.reach
	for i := range n {
		if dst > src && src >= 0 {
			i = n - 1 - i // copy's order, should the ranges overlap
		}
		d := uint32(dst + i)
		if s := uint32(src + i); src < 0 || r.Writes[s>>6]>>(s&63)&1 != 0 {
			p.mark(d)
		} else {
			r.Writes[d>>6] &^= 1 << (d & 63)
		}
	}
}

// conflicts reports whether an attempt of lanes s touched what another lane
// of warp ur owns: it stored into an input another lane loaded or a word
// another lane stores, or it loaded a word another lane stores. Only loads
// inside the warp's writes are logged, so the check costs the attempt's
// stores plus those loads.
func (ur *UnitRec) conflicts(a *emu.Attempt, s uint32, offs []uint32) bool {
	for _, st := range a.Stores {
		if ur.In.lanesAt(st.Addr, offs)&^s != 0 || ur.storedByOther(st.Addr, s) {
			return true
		}
	}
	for _, addr := range a.Loads {
		if ur.storedByOther(addr, s) {
			return true
		}
	}
	return false
}

// storedByOther reports whether a lane outside s stores word idx.
func (ur *UnitRec) storedByOther(idx, s uint32) bool {
	j, ok := slices.BinarySearchFunc(ur.Writes, idx, func(d Delta, idx uint32) int { return cmp.Compare(d.Idx, idx) })
	return ok && s>>ur.Owner[j]&1 == 0
}

// liveHooks selects the instrumentation for a launch that executes.
func (p *Player) liveHooks(ord int) emu.Hooks {
	if p.armed {
		if p.fired != nil && p.fired() {
			// Post-fault tail: the hooks are inert from here on, so drop
			// them and run at uninstrumented speed.
			return emu.Hooks{}
		}
		return p.hooks
	}
	if ord >= len(p.tr.Launches) {
		// Past the recorded execution while still unarmed — only possible
		// when the target is outside the trace. Arm defensively.
		p.armed = true
		if p.prime != nil {
			p.prime(p.tr.Count)
		}
		return p.hooks
	}
	before, cntBefore := p.tr.cumBefore(ord)
	h := p.hooks
	// Countdown mode: an unarmed launch always ends with its local total
	// at least WarpSize below its local threshold, so armG >= the
	// cumulative total of every launch reached unarmed and the
	// subtraction cannot underflow. Replayed units are charged to the
	// launch's count but not to its PerOpcode, so their countable
	// instructions are added here.
	h.ArmAfter = p.armG - before
	h.OnArm = func(res *emu.Result) {
		p.armed = true
		if p.prime != nil {
			p.prime(cntBefore + p.repCount + p.tr.countable(&res.PerOpcode))
		}
	}
	return h
}
