// Package replay captures and fast-forwards multi-launch workload
// executions on the functional emulator.
//
// The software fault injector re-executes its workload once per injection
// with a Post hook armed at a single dynamic instruction. Everything
// before the target is bit-identical to the golden run, so it can be
// restored instead of re-simulated: a Recorder replays the golden run
// once, keeping evenly spaced emulator Snapshots plus the sparse
// global-memory write-set of every launch, and a Player then reproduces
// any execution by applying write-sets for launches that complete before
// the nearest checkpoint, forking the emulator from the checkpoint, and
// running only the remainder live — with hooks kept inert (emu.Hooks
// countdown) until just before the target instruction.
//
// Host code between launches (building programs, reading results,
// seeding the next iteration) re-executes normally in all modes; it is
// deterministic given the global-memory images, which the write-sets
// reproduce exactly.
//
// Players additionally fast-forward the post-fault tail, first inside the
// faulting launch: a countdown player ends it at the faulted block when no
// later block can read a word the fault changed, applying the recorded
// writes of the rest (Player.endAtFault). Then, at every launch boundary,
// the arena is compared against the golden trajectory (the Recorder keeps
// host write-sets alongside the launch write-sets, so the golden arena is
// reconstructible at each boundary without re-simulating). The moment
// they match, the remainder of the run is provably identical to the
// golden execution — the emulator is deterministic and the host is a pure
// function of arena contents — so the remaining launches are skipped via
// write-sets. This reconvergence skip is gated on Trace.HostPure:
// workloads whose host keeps state derived from mid-run arena reads (e.g.
// quicksort's recursion stack) must leave it unset.
package replay

import (
	"cmp"
	"fmt"
	"math/bits"
	"sort"

	"gpufi/internal/emu"
	"gpufi/internal/isa"
)

// Runner abstracts how a workload executes: it allocates the workload's
// global-memory arena and runs its kernel launches. Workloads written
// against Runner can be executed directly (Plain), recorded (Recorder) or
// fast-forwarded (Player) without knowing which.
type Runner interface {
	// Arena allocates the global-memory image. Called exactly once per
	// execution, before any Launch.
	Arena(words int) []uint32
	// Launch executes one kernel launch whose Global aliases the arena.
	// The Runner owns Launch.Hooks; callers leave it zero.
	Launch(l *emu.Launch) error
}

// Plain is the pass-through Runner: fresh arena, every launch executed
// with the configured hooks, Result counters accumulated across launches.
type Plain struct {
	Hooks emu.Hooks
	Res   emu.Result

	// NoFastPath forces the emulator's Tier-0 reference interpreter on
	// every launch (see emu.Launch.NoFastPath).
	NoFastPath bool
}

// Arena implements Runner.
func (p *Plain) Arena(words int) []uint32 { return make([]uint32, words) }

// Launch implements Runner.
func (p *Plain) Launch(l *emu.Launch) error {
	l.Hooks = p.Hooks
	l.NoFastPath = p.NoFastPath
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

// Delta is one changed word of the global-memory arena.
type Delta struct {
	Idx uint32
	Val uint32
}

// LaunchRec describes one recorded launch. Deltas is the diff of the
// arena across the launch itself; host writes between launches are not
// part of it — host code re-executes during replay. Host captures those
// writes separately (the diff of the arena from the previous launch's
// end to this launch's start), purely so reconvergence detection can
// track the golden arena across boundaries; replay never applies Host
// to the live arena.
type LaunchRec struct {
	Deltas []Delta
	Host   []Delta // golden host writes preceding this launch (empty for launch 0)
	// Reads / Writes are bitmaps (indexed by arena word) of the global
	// memory the launch touched on the golden run, the raw data for
	// ComputeLiveIn.
	Reads  []uint64
	Writes []uint64
	// CumInstrs / CumCount are the workload-cumulative thread-instruction
	// and countable-thread-instruction totals after the launch.
	CumInstrs uint64
	CumCount  uint64
	// Blocks holds the launch's blocks in execution order.
	Blocks []BlockRec
}

// BlockRec describes one block of a recorded launch.
type BlockRec struct {
	// Writes is every word the block stored to, changed or not, with its
	// value at the block's end.
	Writes []Delta
	// Instrs is the launch-local thread-instruction count after the block.
	Instrs uint64
}

// Checkpoint anchors a mid-launch emulator snapshot in workload-global
// coordinates.
type Checkpoint struct {
	Launch    int
	Snap      *emu.Snapshot
	CumInstrs uint64 // workload-cumulative thread-instructions at capture
	CumCount  uint64 // workload-cumulative countable instructions at capture
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

	// HostPure asserts that the workload's host code is a pure function
	// of (arena contents, launch ordinal): it carries no state derived
	// from mid-run arena reads across launch boundaries. Players only
	// attempt reconvergence skipping when it is set; the recorder cannot
	// infer it, so the workload owner declares it.
	HostPure bool

	// LiveIn, when computed, holds for each launch boundary the bitmap of
	// arena words the golden continuation reads before writing them.
	// Reconvergence then ignores dead words — corrupted values parked in
	// regions no later launch consumes (e.g. an already-used CNN feature
	// map) no longer block the skip. Only valid when host code neither
	// reads nor writes the arena between the remaining launches; see
	// ComputeLiveIn.
	LiveIn [][]uint64

	// Deprecated: the dead-site index of liveness.go, which no engine builds
	// or reads; kept for bench/'s two liveness probes (ROADMAP 1(a)/2(c)).
	Live *Liveness

	count func(isa.Opcode) bool
}

// ComputeLiveIn fills Trace.LiveIn by walking the recorded read/write
// sets backwards from the host's final output reads (outOff..outOff+
// outWords). LiveIn[r] is the live-in set at the boundary after launch r:
// the words launches r+1.. read before writing, plus the output words
// that survive to the end. It is only sound to prune the reconvergence
// comparison with these sets when host code between the remaining
// launches does not touch the arena — the caller asserts that by
// invoking ComputeLiveIn at all.
func (tr *Trace) ComputeLiveIn(outOff, outWords int) {
	n := len(tr.Launches)
	if n == 0 || tr.Launches[0].Writes == nil {
		return
	}
	words := (tr.Words + 63) / 64
	live := make([]uint64, words)
	for i := outOff; i < outOff+outWords; i++ {
		live[i>>6] |= 1 << (uint(i) & 63)
	}
	tr.LiveIn = make([][]uint64, n)
	tr.LiveIn[n-1] = live
	for j := n - 1; j >= 1; j-- {
		rec := &tr.Launches[j]
		prev := make([]uint64, words)
		for k := range prev {
			prev[k] = (tr.LiveIn[j][k] &^ rec.Writes[k]) | rec.Reads[k]
		}
		tr.LiveIn[j-1] = prev
	}
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
// hook-free while capturing evenly spaced snapshots and per-launch
// write-sets. count classifies the opcodes an injector counts (and
// targets); it parameterises the trace's countable coordinates.
type Recorder struct {
	tr    *Trace
	every uint64
	g     []uint32
	// img is the arena as the recorded deltas account for it: patched at
	// the words each host and launch delta names, never recopied.
	img    []uint32
	nextCk uint64
	stores emu.MemTrace // the running launch's; Writes per block

	// Liveness capture (CaptureLiveness): a Post hook recording the event
	// stream for the backward dead-site scan, plus per-launch end marks.
	capture func(*emu.Event)
	lvc     *liveCapture

	// NoFastPath forces the emulator's Tier-0 reference interpreter while
	// recording. A recording is hook-free and otherwise runs on the Tier-1
	// fast path (which marks the MemTrace bitmaps identically).
	NoFastPath bool
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
	r.stores.Writes = make([]uint64, (words+63)/64)
	r.tr.Words = words
	return r.g
}

// Launch implements Runner.
func (r *Recorder) Launch(l *emu.Launch) error {
	ord := len(r.tr.Launches)
	base, baseCount := r.tr.Instrs, r.tr.Count
	// Host code writes the arena directly; only comparing finds what it
	// changed: the one whole-arena pass a launch costs (launch 0's seeds img).
	// Blocks compare as arrays, one memequal each: most are untouched slack.
	var host []Delta
	if ord == 0 {
		r.img = append(r.img, r.g...)
	}
	const blk = 64
	for lo := 0; ord > 0 && lo < len(r.g); lo += blk {
		hi := min(lo+blk, len(r.g))
		if hi-lo == blk && *(*[blk]uint32)(r.g[lo:]) == *(*[blk]uint32)(r.img[lo:]) {
			continue
		}
		for i := lo; i < hi; i++ {
			if v := r.g[i]; v != r.img[i] {
				host = append(host, Delta{Idx: uint32(i), Val: v})
				r.img[i] = v
			}
		}
	}
	l.Hooks = emu.Hooks{}
	l.NoFastPath = r.NoFastPath
	// r.stores marks one block's stores and is cleared at the block's end,
	// so a block's writes are read off its own marks, with no pass over the
	// arena or the bitmap; writes is their union, the launch's.
	mt := &r.stores
	mt.Reads = make([]uint64, len(mt.Writes))
	l.Mem = mt
	writes := make([]uint64, len(mt.Writes))
	var blocks []BlockRec
	l.BlockDone = func(_ int, res *emu.Result) bool {
		var written []Delta
		for _, k := range mt.Touched {
			m := mt.Writes[k]
			writes[k] |= m
			for ; m != 0; m &= m - 1 {
				i := int(k)<<6 + bits.TrailingZeros64(m)
				written = append(written, Delta{Idx: uint32(i), Val: r.g[i]})
			}
		}
		mt.ClearWrites()
		blocks = append(blocks, BlockRec{Writes: written, Instrs: res.DynThreadInstrs})
		return false
	}
	if r.capture != nil {
		l.Hooks.Post = r.capture
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
		})
	})
	if err != nil {
		return err
	}
	// A launch changes only words it stored to, and every store marks Writes:
	// the marked words that differ from img are what a whole-arena diff finds.
	var deltas []Delta
	for k, m := range writes {
		for ; m != 0; m &= m - 1 {
			i := k<<6 + bits.TrailingZeros64(m)
			if v := r.g[i]; v != r.img[i] {
				deltas = append(deltas, Delta{Idx: uint32(i), Val: v})
				r.img[i] = v
			}
		}
	}
	r.tr.Instrs = base + res.DynThreadInstrs
	r.tr.Count = baseCount + r.tr.countable(&res.PerOpcode)
	r.tr.Launches = append(r.tr.Launches, LaunchRec{
		Deltas:    deltas,
		Host:      host,
		Reads:     mt.Reads,
		Writes:    writes,
		CumInstrs: r.tr.Instrs,
		CumCount:  r.tr.Count,
		Blocks:    blocks,
	})
	r.endLaunch(l)
	for r.nextCk <= r.tr.Instrs {
		r.nextCk += r.every
	}
	return nil
}

// Finish seals and returns the trace.
func (r *Recorder) Finish() *Trace { return r.tr }

// Pool is a per-worker reusable arena buffer. Players attached to the
// same Pool (sequentially — a Pool is not safe for concurrent use) reuse
// one allocation instead of allocating a fresh arena per replay.
type Pool struct {
	buf    []uint32
	shadow []uint32
	stores emu.MemTrace
}

// Player is the fast-forwarding Runner. Launches whose recorded execution
// completes before the selected checkpoint are skipped by applying their
// write-sets; the checkpointed launch forks from the snapshot; everything
// after runs live. In countdown mode instrumentation stays inert until
// just before the target countable instruction.
type Player struct {
	tr    *Trace
	hooks emu.Hooks
	prime func(countDone uint64)
	fired func() bool

	ord    int
	ck     *Checkpoint
	skipTo int    // skip launches with ord <= skipTo via write-sets; -1 when unused
	armG   uint64 // arming threshold in workload-cumulative thread-instructions
	armed  bool
	g      []uint32

	// Reconvergence state: shadow tracks the golden arena at launch
	// boundaries (nil when the trace's host is not declared pure or the
	// player has no fault to reconverge from); shadowLive reports that
	// shadow holds a valid golden image; converged flips once the live
	// arena matches the golden trajectory post-fault, after which every
	// remaining launch is skipped via write-sets.
	shadow     []uint32
	shadowLive bool
	converged  bool

	// stores watches the stores of the launches a countdown player runs
	// before its fault has fired (Writes only; nil for other players), so
	// the faulting launch can end at the faulted block (endAtFault).
	stores *emu.MemTrace

	// Live accumulates the portion actually simulated; Skipped counts the
	// thread-instructions provably avoided (write-set launches, restored
	// snapshot prefixes, faulting-launch remainders). Live.DynThreadInstrs +
	// Skipped equals a full replay's total as long as the replay tracks the
	// golden run.
	Live    emu.Result
	Skipped uint64

	// NoFastPath forces the emulator's Tier-0 reference interpreter for
	// every simulated segment (see emu.Launch.NoFastPath). Without it the
	// player picks tiers per segment: the unarmed countdown prefix and the
	// post-fault tail run on the Tier-1 fast path; Tier 0 takes over only
	// while injection hooks are armed.
	NoFastPath bool
}

// NewPlayer builds a Player that arms hooks just before the target-th
// (0-based) countable thread-instruction of the recorded execution.
// prime, when non-nil, is called once at arming time with the number of
// countable instructions already executed, so the caller's counter picks
// up exactly where the uninstrumented prefix left off. fired, when
// non-nil, reports that the caller's instrumentation is done firing;
// later launches then run fully uninstrumented.
func NewPlayer(tr *Trace, target uint64, hooks emu.Hooks, prime func(countDone uint64), fired func() bool, pool *Pool) *Player {
	p := &Player{tr: tr, hooks: hooks, prime: prime, fired: fired, skipTo: -1}
	// Fork point: the latest checkpoint whose countable count is at or
	// before the target. The countdown threshold is re-based on it — the
	// countable-vs-total slack accumulated before the checkpoint is
	// irrelevant, so arming happens at most one checkpoint interval's
	// worth of non-countable instructions early.
	i := sort.Search(len(tr.Ckpts), func(i int) bool { return tr.Ckpts[i].CumCount > target }) - 1
	var baseTot, baseCnt uint64
	if i >= 0 {
		p.ck = &tr.Ckpts[i]
		baseTot, baseCnt = p.ck.CumInstrs, p.ck.CumCount
	}
	p.armG = baseTot + (target - baseCnt)
	p.attach(pool)
	return p
}

// NewPlayerSkipTo builds a Player that fast-forwards launches 0..lastSkipped
// by applying their write-sets and runs the remainder live, fully
// uninstrumented — the replay mode for corruption applied by host code
// between launches (e.g. the CNN tile model).
func NewPlayerSkipTo(tr *Trace, lastSkipped int, pool *Pool) *Player {
	p := &Player{tr: tr, armed: true, skipTo: lastSkipped}
	if p.skipTo >= len(tr.Launches) {
		p.skipTo = len(tr.Launches) - 1
	}
	p.attach(pool)
	return p
}

// NewPlayerAt builds an uninstrumented Player that forks from checkpoint
// index ck exactly; used to property-test snapshot/resume determinism.
func NewPlayerAt(tr *Trace, ck int, pool *Pool) *Player {
	p := &Player{tr: tr, armed: true, skipTo: -1}
	if ck >= 0 && ck < len(tr.Ckpts) {
		p.ck = &tr.Ckpts[ck]
	}
	p.attach(pool)
	return p
}

func (p *Player) attach(pool *Pool) {
	// Reconvergence applies to players replaying a faulty run (a countdown
	// injector or a skip-to-corruption replay) over a pure-host trace with
	// launches left to skip. NewPlayerAt stays exempt: it exists to
	// property-test that live resumed execution matches the golden run,
	// which skipping would bypass.
	converge := p.tr.HostPure && (p.fired != nil || p.skipTo >= 0) && len(p.tr.Launches) > 1
	if pool == nil {
		pool = &Pool{}
	}
	if p.fired != nil {
		if words := (p.tr.Words + 63) / 64; len(pool.stores.Writes) != words {
			pool.stores.Writes = make([]uint64, words)
		}
		p.stores = &pool.stores
	}
	if len(pool.buf) != p.tr.Words {
		pool.buf = make([]uint32, p.tr.Words)
	}
	p.g = pool.buf
	if converge {
		if len(pool.shadow) != p.tr.Words {
			pool.shadow = make([]uint32, p.tr.Words)
		}
		p.shadow = pool.shadow
	}
}

// Arena implements Runner. The pooled buffer is zeroed so replays see the
// same pristine arena a fresh allocation would provide.
func (p *Player) Arena(words int) []uint32 {
	if words != p.tr.Words {
		panic(fmt.Sprintf("replay: workload requested %d arena words, trace recorded %d", words, p.tr.Words))
	}
	for i := range p.g {
		p.g[i] = 0
	}
	return p.g
}

// Launch implements Runner.
func (p *Player) Launch(l *emu.Launch) error {
	ord := p.ord
	p.ord++
	l.NoFastPath = p.NoFastPath
	resumeOrd := -1
	if p.ck != nil {
		resumeOrd = p.ck.Launch
	}
	if ord <= p.skipTo || (p.ck != nil && ord < resumeOrd) ||
		(p.converged && ord < len(p.tr.Launches)) {
		rec := &p.tr.Launches[ord]
		for _, d := range rec.Deltas {
			p.g[d.Idx] = d.Val
		}
		prev, _ := p.tr.cumBefore(ord)
		p.Skipped += rec.CumInstrs - prev
		if p.shadow != nil && ord == p.skipTo {
			// The corruption is applied by host code right after this
			// launch; the arena still holds the golden image, so capture
			// it before handing control back.
			copy(p.shadow, p.g)
			p.shadowLive = true
		}
		return nil
	}
	p.syncShadow(ord)
	l.Hooks = p.liveHooks(ord)
	l.Mem, l.BlockDone = nil, nil
	if p.stores != nil && !p.faultDone() && ord < len(p.tr.Launches) {
		l.Mem, l.BlockDone = p.stores, p.endAtFault(ord, l)
		defer p.stores.ClearWrites()
	}
	var res emu.Result
	var err error
	if p.ck != nil && ord == resumeOrd {
		snap := p.ck.Snap
		res, err = emu.Resume(l, snap)
		p.addLive(&res, snap)
		p.Skipped += snap.Res().DynThreadInstrs
	} else {
		res, err = emu.Run(l)
		p.addLive(&res, nil)
	}
	if err != nil {
		return err
	}
	p.checkConverged(ord)
	return nil
}

// faultDone reports that the replayed fault has been applied: a countdown
// player's instrumentation fired, or — for skip-to players, whose
// corruption lands the moment host code runs after the skipped prefix —
// always.
func (p *Player) faultDone() bool {
	if p.skipTo >= 0 {
		return true
	}
	return p.fired != nil && p.fired()
}

// endAtFault is the BlockDone of a launch the fault has not fired before:
// it ends the launch at the faulted block b, applying the recorded writes
// of blocks b+1.. instead, when D — the words the faulty run left unlike
// golden — misses the launch's golden read set and the watchdog would not
// fire in the remainder. Blocks start with fresh registers and shared
// memory, so blocks b+1.. then run as recorded; and D lies within b's
// golden writes and live stores, every earlier block having run before
// the fault. The host only runs after the launch returns.
func (p *Player) endAtFault(ord int, l *emu.Launch) func(int, *emu.Result) bool {
	rec := &p.tr.Launches[ord]
	budget := cmp.Or(l.MaxDynInstrs, emu.DefaultMaxDynInstrs)
	decided := false
	return func(b int, res *emu.Result) bool {
		if decided {
			return false
		}
		if !p.fired() {
			// A block that ended before the fault stored its golden writes.
			p.stores.ClearWrites()
			return false
		}
		decided = true
		rest := rec.Blocks[len(rec.Blocks)-1].Instrs - rec.Blocks[b].Instrs
		if res.DynThreadInstrs+rest > budget || p.faultReadable(rec, b) {
			return false
		}
		for _, blk := range rec.Blocks[b+1:] {
			for _, d := range blk.Writes {
				p.g[d.Idx] = d.Val
			}
		}
		p.Skipped += rest
		return true
	}
}

// faultReadable reports whether a word of D (see endAtFault) at the end
// of the faulted block b is in the launch's golden read set. It consumes
// the block's store marks.
func (p *Player) faultReadable(rec *LaunchRec, b int) bool {
	w := p.stores.Writes
	for _, d := range rec.Blocks[b].Writes {
		k, bit := d.Idx>>6, uint64(1)<<(d.Idx&63)
		if p.g[d.Idx] != d.Val && rec.Reads[k]&bit != 0 {
			return true
		}
		w[k] &^= bit
	}
	// What is left are stores the golden block did not make: different
	// without a compare.
	for _, k := range p.stores.Touched {
		if w[k]&rec.Reads[k] != 0 {
			return true
		}
	}
	return false
}

// syncShadow establishes the invariant "shadow == golden arena before
// launch ord" at the start of every live launch. Pre-fault the live arena
// itself is golden, so it is copied wholesale; post-fault the golden image
// advances across the host boundary via the recorded host write-set.
func (p *Player) syncShadow(ord int) {
	if p.shadow == nil || p.converged || ord >= len(p.tr.Launches) {
		return
	}
	if !p.faultDone() {
		copy(p.shadow, p.g)
		p.shadowLive = true
		return
	}
	if !p.shadowLive {
		return
	}
	for _, d := range p.tr.Launches[ord].Host {
		p.shadow[d.Idx] = d.Val
	}
}

// checkConverged advances the shadow to the golden post-launch image and,
// once the fault has fired, compares the live arena against it. On a
// match the rest of the execution is provably bit-identical to the golden
// run (deterministic emulator, pure host), so later launches skip.
func (p *Player) checkConverged(ord int) {
	if p.shadow == nil || p.converged || !p.shadowLive || ord >= len(p.tr.Launches) {
		return
	}
	if !p.faultDone() {
		return // next syncShadow recopies the still-golden arena
	}
	for _, d := range p.tr.Launches[ord].Deltas {
		p.shadow[d.Idx] = d.Val
	}
	if lv := p.tr.LiveIn; lv != nil {
		// Dead-word pruning: only compare the words the golden
		// continuation reads. The corrupted run may park garbage in
		// regions nothing consumes anymore; the real continuation would
		// still behave observably like the golden run, so on a match the
		// arena is reset to the golden image before write-set skipping —
		// which assumes the golden pre-state — takes over.
		for k, mask := range lv[ord] {
			for m := mask; m != 0; m &= m - 1 {
				i := k<<6 + bits.TrailingZeros64(m)
				if p.g[i] != p.shadow[i] {
					return
				}
			}
		}
		copy(p.g, p.shadow)
		p.converged = true
		return
	}
	for i, v := range p.g {
		if v != p.shadow[i] {
			return
		}
	}
	p.converged = true
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
	// subtraction cannot underflow.
	h.ArmAfter = p.armG - before
	h.OnArm = func(res *emu.Result) {
		p.armed = true
		if p.prime != nil {
			p.prime(cntBefore + p.tr.countable(&res.PerOpcode))
		}
	}
	return h
}

func (p *Player) addLive(res *emu.Result, snap *emu.Snapshot) {
	if snap == nil {
		addResult(&p.Live, res)
		return
	}
	sr := snap.Res()
	p.Live.DynThreadInstrs += res.DynThreadInstrs - sr.DynThreadInstrs
	for op := range res.PerOpcode {
		p.Live.PerOpcode[op] += res.PerOpcode[op] - sr.PerOpcode[op]
	}
}
