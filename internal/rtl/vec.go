package rtl

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// This file implements bit-parallel fault simulation (the PPSFP trick the
// ROADMAP names): one march simulates up to 63 faulty machines alongside a
// single golden run of the same input draw. Lane 0 is the golden machine;
// lanes 1..63 are faulty variants, each a single-transient Fault.
//
// The engine exploits the same observation dead-site pruning already
// relies on: a transient flip touches one flip-flop field, and until the
// golden dataflow *reads* a location where a faulty variant differs, the
// variant's cycle-by-cycle transition is bit-identical to the golden one.
// So a faulty lane does not need its own machine while it is *parked*: it
// is represented as the golden state plus a small set of (location, value)
// deltas. Per-location divergence planes
// — one uint64 of lane bits per flip-flop state word, register row, predicate
// file, active mask, SIMT stack and memory word — let the golden run's
// every semantic access probe "does any parked lane differ here?" in O(1):
//
//   - A golden *read* of a location with plane bits unparks those lanes:
//     their control/dataflow diverges this cycle, so each is materialised
//     onto a real machine (copy of the golden state, rewound to the cycle
//     start through the march's undo log, deltas applied) and steps in
//     lockstep with the golden machine from then on — the "evicted to the
//     scalar engine" path, except the eviction is usually temporary.
//   - A golden *overwrite* of a location kills the parked deltas there:
//     a still-parked lane saw identical inputs all along, so its own
//     (virtual) write stores the same value and the difference dies. Every
//     read-modify-write site probes the read before the write, so a lane
//     whose delta feeds the written value always unparks first and the
//     kill only ever fires on lanes for which it is sound. A lane whose
//     last delta is killed has provably reconverged with the golden run —
//     classification Masked — without ever simulating a cycle.
//   - A *hot* (materialised) lane periodically attempts to re-park: diff
//     its machine against the golden machine over the locations either
//     wrote since the divergence (plus the deltas it diverged with — the
//     march write log supplies the golden side, the lane tracer its own
//     writes). A small difference set parks the lane again; a large one —
//     the control-diverged case — keeps it hot, with exponential backoff
//     on further attempts, until it finishes on its own.
//
// Permanent faults would break the core invariant (a parked lane's state
// can be reconstructed as golden ⊕ deltas only because the flip happens
// once); they must use the scalar engine.
//
// The march preserves the engine's bit-identity guarantee: every lane's
// trajectory is exactly the scalar faulty run's (same final memory image,
// same DUE error, same trajectory length), because parked spans are
// provably transition-identical and hot spans execute the very same
// stepCycle logic. Only the SimCycles/SkippedCycles split differs, as it
// already does between the scalar engine's modes.

// VecMaxLanes is the faulty-lane capacity of one march: lane 0 is the
// golden machine, leaving 63 lane bits per divergence-plane word.
const VecMaxLanes = 63

const (
	// vecParkMax bounds the delta set a hot lane may park with; a diff
	// larger than this keeps the lane hot (control-diverged lanes would
	// otherwise thrash park/unpark).
	vecParkMax = 48
	// vecMaxCand bounds the candidate locations a park attempt will
	// compare; once a hot span has touched more, attempts fail fast and
	// the lane effectively stays on the scalar path.
	vecMaxCand = 768
	// vecMaxLaneWrites bounds the hot-lane write log; overflow marks the
	// lane as never-parking (de facto scalar eviction).
	vecMaxLaneWrites = 4096
	// vecMaxResync bounds the golden-write span an incremental machine
	// resync will roll forward; beyond it a full CopyFrom is cheaper.
	vecMaxResync = 2048
	// vecParkHorizon is the read-ahead horizon (in golden cycles) of
	// tryPark's schedule heuristic: a lane whose divergence the golden
	// run will read again within this many cycles stays hot — the hot
	// steps cost about as much as the park/unpark round trip the read
	// would force, and parking would buy nothing.
	vecParkHorizon = 6
)

// Location kinds of divergence deltas and write-log entries.
const (
	dFF     uint8 = iota // a = module slot (vecStates order), b = 64-bit word index
	dReg                 // a = warp, b = register, c = lane
	dPred                // a = warp, b = predicate index
	dMask                // a = warp (top-of-stack active mask)
	dStack               // a = warp (whole SIMT stack image)
	dGlobal              // a = word address
	dShared              // a = word address
)

// vdelta is one (location, value) pair. As a lane delta, val/stack hold
// the *lane's* value at the location; as a march write-log entry, they
// hold the golden value *before* the write (the undo image). As a
// hot-lane write record or park candidate, only the location is used.
type vdelta struct {
	kind    uint8
	a, b, c int32
	val     uint64
	stack   []simtEntry
}

// vkey is a vdelta's location, used for park-candidate deduplication.
type vkey struct {
	kind    uint8
	a, b, c int32
}

func (d *vdelta) key() vkey { return vkey{d.kind, d.a, d.b, d.c} }

// vlane is one faulty variant's march state.
type vlane struct {
	bit uint64 // this lane's divergence-plane bit
	idx int    // caller's slot in the March fault/outcome slices

	deltas []vdelta // parked: where (and how) the lane differs from golden
	base   []vdelta // hot: the deltas the lane diverged with (park candidates)
	spare  []vdelta // scratch for the next park attempt (capacity reuse)

	m        *Machine // hot: the lane's materialised machine
	writes   []vdelta // hot: locations the lane wrote (park candidates)
	spanFrom int      // hot: write-log index at materialisation
	nextTry  uint64   // hot: earliest golden cycle for the next park attempt
	tryGap   uint64   // hot: park-attempt backoff
	noPark   bool     // hot: write log overflowed; lane runs to completion

	lastPark uint64 // golden cycle of the last successful park
	thrash   uint32 // consecutive quick park→unpark round trips (see unpark)

	// Last schedule rejection (see tryPark): the module/word (or register
	// row) whose imminent golden re-read blocked the last park attempt.
	// The next attempt re-checks it first; while it still blocks, the
	// attempt costs a word compare and one schedule query.
	rejMod, rejWord int
	rejRow          int
	rejKind         uint8 // 0 none, 1 flip-flop word, 2 register row

	sim        uint64 // cycles actually stepped on a lane machine
	done       bool
	goldenDone bool // reconverged bit-identically with the golden run
	out        VecOutcome
}

// stashed is a delta killed earlier in the current cycle. If its lane
// unparks later in the same cycle, the delta is restored: the lane
// re-executes the whole cycle from its start, where the delta still held.
type stashed struct {
	ln *vlane
	d  vdelta
}

// vecTracer receives every semantic state access of the march's machines
// (see State.vec and Machine.vec). With hot == nil the golden machine is
// stepping: reads probe the divergence planes, writes feed the undo/write
// log and kill parked deltas. With hot set, that lane's machine is
// stepping and only its write locations are recorded.
type vecTracer struct {
	eng *VecEngine
	hot *vlane

	// states/ffGeom cache the golden machine's module states and field
	// geometry tables in moduleIndex order for the hook fast paths.
	states [6]*State
	ffGeom [6][]fieldGeom

	parked uint64 // lanes currently represented as deltas
	lanes  []*vlane

	// Divergence planes: bit L set means lane L is parked with a delta at
	// the location. Plane bits are always a subset of parked. Flip-flop
	// deltas live at 64-bit *word* granularity (one plane slot per module
	// state word), so park attempts diff module words directly and golden
	// field writes splice-update parked words without field extraction.
	ffPlane     [6][]uint64
	regPlane    [MaxWarps][isa.NumRegs]uint64
	predPlane   [MaxWarps]uint64
	maskPlane   [MaxWarps]uint64
	stackPlane  [MaxWarps]uint64
	globalPlane []uint64
	sharedPlane []uint64

	// wlog is the march's append-only golden write log for everything
	// EXCEPT flip-flop fields: locations with pre-write values.
	// cycleOff[c] is the log length at the start of golden cycle c, so
	// wlog[cycleOff[c]:] applied in reverse rewinds a copy of the
	// end-of-cycle state to the cycle start, and wlog[cycleOff[p]:] lists
	// every location golden wrote since cycle p. Flip-flop writes — the
	// machine's densest kind by an order of magnitude — are not logged:
	// ffSnap holds a copy of the golden module words from the start of
	// the current cycle (the FF rewind image), and park attempts diff
	// module state word-by-word instead of tracking write locations.
	wlog     []vdelta
	cycleOff []int
	ffSnap   [6][]uint64

	mark      uint64 // current golden cycle + 1
	cycleBase uint64 // golden cycle of the march's first step (cycleOff[0])
	stackMark [MaxWarps]uint64

	wake    []*vlane // lanes to materialise at the end of this cycle
	stash   []stashed
	emptied []*vlane // lanes whose last delta a kill removed this cycle

	// rec, when non-nil, is the draw's read schedule under construction:
	// this march is the draw's first, and every golden flip-flop and
	// register read is recorded. sched, when non-nil, is a completed
	// recording from an earlier march of the same draw (the golden run is
	// deterministic, so the schedule is identical), consulted by tryPark's
	// read-ahead heuristic. At most one of the two is set.
	rec   *MarchSched
	sched *MarchSched
}

// vecStates lists a machine's module states in moduleIndex order (the
// same order Liveness uses, so Fault.Module maps with moduleIndex).
func vecStates(m *Machine) [6]*State {
	return [6]*State{m.FP32, m.INT, m.SFU, m.SFUCtl, m.Sched, m.Pipe}
}

// TraceVec attaches t to every module state so the machine's semantic
// accesses reach the march engine; pass nil to detach.
func (m *Machine) TraceVec(t *vecTracer) {
	states := vecStates(m)
	for i, st := range states {
		if t == nil {
			st.vec = nil
		} else {
			st.vec, st.vecMod = t, i
		}
	}
	m.vec = t
}

// CopyFrom overwrites the machine's state with a bit-exact copy of
// another machine's, the Restore analogue for machine-to-machine copies.
// Like Restore it copies raw state and bypasses tracers, bounds the
// register-file copy by the source's dirty high-water mark, and leaves
// the machine with no pending fault or error.
func (m *Machine) CopyFrom(src *Machine) {
	msts, ssts := m.moduleStates(), src.moduleStates()
	for i := range msts {
		copy(msts[i].words, ssts[i].words)
	}
	for w := 0; w < src.hiDirty; w++ {
		m.regs[w] = src.regs[w]
		m.preds[w] = src.preds[w]
		m.stacks[w] = append(m.stacks[w][:0], src.stacks[w]...)
		m.warpMask[w] = src.warpMask[w]
	}
	for w := src.hiDirty; w < m.hiDirty; w++ {
		m.resetWarp(w)
	}
	m.hiDirty = src.hiDirty
	if !m.globalOwned || cap(m.global) < len(src.global) {
		m.global = make([]uint32, len(src.global))
		m.globalOwned = true
	}
	m.global = m.global[:len(src.global)]
	copy(m.global, src.global)
	if cap(m.shared) < len(src.shared) {
		m.shared = make([]uint32, len(src.shared))
	}
	m.shared = m.shared[:len(src.shared)]
	copy(m.shared, src.shared)
	m.prog = src.prog
	m.imem = src.imem
	m.grid, m.block = src.grid, src.block
	m.curBlock = src.curBlock
	m.nwarps = src.nwarps
	m.cycle = src.cycle
	m.jumped = 0
	m.maxCycles = src.maxCycles
	m.blockDone = src.blockDone
	m.err = nil
	m.fault = nil
	m.injected = false
	m.machineDone = false
}

// ---- tracer hooks -------------------------------------------------------

func (h *vlane) recordWrite(d vdelta) {
	if len(h.writes) >= vecMaxLaneWrites {
		h.noPark = true
		h.writes = nil
		return
	}
	h.writes = append(h.writes, d)
}

func (t *vecTracer) onFFRead(mod, fi int) {
	if t.hot != nil {
		return
	}
	g := &t.ffGeom[mod][fi]
	w := int(g.word)
	if t.rec != nil {
		cyc := uint32(t.mark - 1)
		t.rec.recordFF(mod, w, cyc, g.low())
		if g.spill != 0 {
			t.rec.recordFF(mod, w+1, cyc, g.high())
		}
	}
	if t.ffPlane[mod][w] == 0 && (g.spill == 0 || t.ffPlane[mod][w+1] == 0) {
		return
	}
	t.ffRead(mod, g)
}

// ffRead is onFFRead's slow path. Word-granularity planes alias every
// field packed into the same 64-bit word, so a plane hit is refined to
// field precision before unparking: splice-updates keep a parked delta's
// val current, so the lane's word differs from the golden word exactly in
// delta.val ^ words[w], and only a read overlapping those bits diverges.
func (t *vecTracer) ffRead(mod int, g *fieldGeom) {
	t.ffProbeWord(mod, int(g.word), g.low())
	if g.spill != 0 {
		t.ffProbeWord(mod, int(g.word)+1, g.high())
	}
}

func (t *vecTracer) ffProbeWord(mod, w int, bitMask uint64) {
	plane := t.ffPlane[mod][w]
	if plane == 0 {
		return
	}
	gw := t.states[mod].words[w]
	k := vkey{dFF, int32(mod), int32(w), 0}
	for p := plane; p != 0; p &= p - 1 {
		ln := t.lanes[bits.TrailingZeros64(p)-1]
		for i := range ln.deltas {
			if ln.deltas[i].key() == k {
				if (ln.deltas[i].val^gw)&bitMask != 0 {
					t.unpark(ln)
				}
				break
			}
		}
	}
}

// onFFWrite neither logs nor records flip-flop writes (see wlog and
// tryPark: ffSnap is the rewind image, the word diff the park compare).
// In golden mode it splice-updates parked word deltas: a still-parked
// lane's own (virtual) write stores the same v, so its word delta either
// converges to the post-write golden word (the delta dies) or narrows to
// the bits the write left alone. v is the raw value being written.
func (t *vecTracer) onFFWrite(mod, fi int, v uint64) {
	if t.hot != nil {
		return
	}
	g := &t.ffGeom[mod][fi]
	w := int(g.word)
	if t.rec != nil {
		cyc := uint32(t.mark - 1)
		t.rec.touchFF(mod, w, cyc, g.low())
		if g.spill != 0 {
			t.rec.touchFF(mod, w+1, cyc, g.high())
		}
	}
	if t.ffPlane[mod][w] == 0 && (g.spill == 0 || t.ffPlane[mod][w+1] == 0) {
		return
	}
	t.ffWrite(mod, g, v)
}

// ffWrite is onFFWrite's slow path: mirror setRaw's word splicing onto
// every parked delta in the written word(s), with the post-write golden
// word as the kill threshold.
func (t *vecTracer) ffWrite(mod int, g *fieldGeom, v uint64) {
	st := t.states[mod]
	v &= g.mask
	w := int(g.word)
	lo, orLo := g.low(), v<<g.shift
	t.ffUpdateWord(mod, w, lo, orLo, st.words[w]&^lo|orLo)
	if g.spill != 0 {
		hi, orHi := g.high(), v>>(64-g.shift)
		t.ffUpdateWord(mod, w+1, hi, orHi, st.words[w+1]&^hi|orHi)
	}
}

// ffUpdateWord applies one word's splice to every lane parked there. The
// start-of-cycle delta is stashed once per cycle before the first change:
// a lane that unparks later in the same cycle re-executes the cycle from
// its start, where the original delta still held.
func (t *vecTracer) ffUpdateWord(mod, w int, clearMask, orVal, postGold uint64) {
	plane := &t.ffPlane[mod][w]
	if *plane == 0 {
		return
	}
	k := vkey{dFF, int32(mod), int32(w), 0}
	for p := *plane; p != 0; p &= p - 1 {
		li := bits.TrailingZeros64(p)
		ln := t.lanes[li-1]
		di := -1
		for i := range ln.deltas {
			if ln.deltas[i].key() == k {
				di = i
				break
			}
		}
		if di < 0 {
			continue
		}
		already := false
		for i := range t.stash {
			if t.stash[i].ln == ln && t.stash[i].d.key() == k {
				already = true
				break
			}
		}
		if !already {
			t.stash = append(t.stash, stashed{ln, ln.deltas[di]})
		}
		nv := ln.deltas[di].val&^clearMask | orVal
		if nv == postGold {
			ln.deltas[di] = ln.deltas[len(ln.deltas)-1]
			ln.deltas = ln.deltas[:len(ln.deltas)-1]
			*plane &^= 1 << uint(li)
			if len(ln.deltas) == 0 {
				t.emptied = append(t.emptied, ln)
			}
		} else {
			ln.deltas[di].val = nv
		}
	}
}

func (t *vecTracer) onRegRead(w, r int) {
	if t.hot != nil {
		return
	}
	if t.rec != nil {
		t.rec.recordReg(w*isa.NumRegs+r, uint32(t.mark-1))
	}
	if p := t.regPlane[w][r]; p != 0 {
		t.trigger(p)
	}
}

func (t *vecTracer) onRegWrite(w, r, lane int, old uint32) {
	if h := t.hot; h != nil {
		if !h.noPark {
			h.recordWrite(vdelta{kind: dReg, a: int32(w), b: int32(r), c: int32(lane)})
		}
		return
	}
	if t.rec != nil {
		t.rec.regTouch[w*isa.NumRegs+r] = uint32(t.mark - 1)
	}
	t.wlog = append(t.wlog, vdelta{kind: dReg, a: int32(w), b: int32(r), c: int32(lane), val: uint64(old)})
	if t.regPlane[w][r] != 0 {
		t.killReg(w, r, lane)
	}
}

func (t *vecTracer) onPredRead(w int) {
	if t.hot != nil {
		return
	}
	if t.rec != nil {
		t.rec.predTouch[w] = uint32(t.mark - 1)
	}
	if p := t.predPlane[w]; p != 0 {
		t.trigger(p)
	}
}

// onPredWrite handles the predicate files' read-modify-write updates:
// parked lanes with a delta in the warp's predicate file unpark (their
// virtual RMW may store a different word), and the pre-write word feeds
// the undo log. No kill: the write never fully overwrites the word.
func (t *vecTracer) onPredWrite(w, idx int, old uint32) {
	if h := t.hot; h != nil {
		if !h.noPark {
			h.recordWrite(vdelta{kind: dPred, a: int32(w), b: int32(idx)})
		}
		return
	}
	if t.rec != nil {
		t.rec.predTouch[w] = uint32(t.mark - 1)
	}
	t.wlog = append(t.wlog, vdelta{kind: dPred, a: int32(w), b: int32(idx), val: uint64(old)})
	if p := t.predPlane[w]; p != 0 {
		t.trigger(p)
	}
}

func (t *vecTracer) onMaskRead(w int) {
	if t.hot != nil {
		return
	}
	if t.rec != nil {
		t.rec.maskTouch[w] = uint32(t.mark - 1)
	}
	if p := t.maskPlane[w]; p != 0 {
		t.trigger(p)
	}
}

// onMaskWrite logs the pre-write active mask. Every mask write site reads
// the mask earlier in the same cycle, so lanes with a mask delta have
// already unparked; the extra trigger is a conservative no-op.
func (t *vecTracer) onMaskWrite(w int, old uint32) {
	if h := t.hot; h != nil {
		if !h.noPark {
			h.recordWrite(vdelta{kind: dMask, a: int32(w)})
		}
		return
	}
	if t.rec != nil {
		t.rec.maskTouch[w] = uint32(t.mark - 1)
	}
	t.wlog = append(t.wlog, vdelta{kind: dMask, a: int32(w), val: uint64(old)})
	if p := t.maskPlane[w]; p != 0 {
		t.trigger(p)
	}
}

// onStackTouch handles every SIMT stack access — reads and mutations
// alike, since stack mutations are never whole-value overwrites. The
// first touch of a cycle logs the warp's whole pre-image for the undo
// log; any touch unparks lanes with a stack delta in the warp.
func (t *vecTracer) onStackTouch(w int) {
	if h := t.hot; h != nil {
		if !h.noPark {
			h.recordWrite(vdelta{kind: dStack, a: int32(w)})
		}
		return
	}
	if t.rec != nil {
		t.rec.stackTouch[w] = uint32(t.mark - 1)
	}
	if t.stackMark[w] != t.mark {
		t.stackMark[w] = t.mark
		t.wlog = append(t.wlog, vdelta{kind: dStack, a: int32(w),
			stack: append([]simtEntry(nil), t.eng.golden.stacks[w]...)})
	}
	if p := t.stackPlane[w]; p != 0 {
		t.trigger(p)
	}
}

func (t *vecTracer) onMemRead(shared bool, addr int) {
	if t.hot != nil {
		return
	}
	if t.rec != nil {
		t.rec.touchMem(shared, addr, uint32(t.mark-1))
	}
	plane := t.globalPlane
	if shared {
		plane = t.sharedPlane
	}
	if p := plane[addr]; p != 0 {
		t.trigger(p)
	}
}

func (t *vecTracer) onMemWrite(shared bool, addr int, old uint32) {
	k := dGlobal
	if shared {
		k = dShared
	}
	if h := t.hot; h != nil {
		if !h.noPark {
			h.recordWrite(vdelta{kind: k, a: int32(addr)})
		}
		return
	}
	if t.rec != nil {
		t.rec.touchMem(shared, addr, uint32(t.mark-1))
	}
	t.wlog = append(t.wlog, vdelta{kind: k, a: int32(addr), val: uint64(old)})
	plane := &t.globalPlane[addr]
	if shared {
		plane = &t.sharedPlane[addr]
	}
	if *plane != 0 {
		t.killAt(vkey{k, int32(addr), 0, 0}, plane)
	}
}

// ---- plane bookkeeping --------------------------------------------------

func (t *vecTracer) setPlane(d *vdelta, bit uint64) {
	switch d.kind {
	case dFF:
		t.ffPlane[d.a][d.b] |= bit
	case dReg:
		t.regPlane[d.a][d.b] |= bit
	case dPred:
		t.predPlane[d.a] |= bit
	case dMask:
		t.maskPlane[d.a] |= bit
	case dStack:
		t.stackPlane[d.a] |= bit
	case dGlobal:
		t.globalPlane[d.a] |= bit
	case dShared:
		t.sharedPlane[d.a] |= bit
	}
}

func (t *vecTracer) clearPlane(d *vdelta, bit uint64) {
	switch d.kind {
	case dFF:
		t.ffPlane[d.a][d.b] &^= bit
	case dReg:
		t.regPlane[d.a][d.b] &^= bit
	case dPred:
		t.predPlane[d.a] &^= bit
	case dMask:
		t.maskPlane[d.a] &^= bit
	case dStack:
		t.stackPlane[d.a] &^= bit
	case dGlobal:
		t.globalPlane[d.a] &^= bit
	case dShared:
		t.sharedPlane[d.a] &^= bit
	}
}

// trigger unparks every lane in a plane word: the golden run accessed a
// location where they differ, so their transitions diverge this cycle.
// The lanes are queued for materialisation at the end of the cycle.
func (t *vecTracer) trigger(p uint64) {
	for b := p; b != 0; b &= b - 1 {
		t.unpark(t.lanes[bits.TrailingZeros64(b)-1])
	}
}

func (t *vecTracer) unpark(ln *vlane) {
	// Thrash detection: most unparks land within a cycle or two of the
	// last park — the golden run is re-reading the lane's delta locations
	// in a burst, and every park/unpark round trip costs a materialise.
	// Escalate a hot-dwell penalty so a thrashing lane rides the burst out
	// on its machine; a long quiet gap resets it.
	if ln.lastPark != 0 {
		if t.eng.golden.cycle-ln.lastPark <= 6 {
			if ln.thrash < 8 {
				ln.thrash++
			}
		} else if t.eng.golden.cycle-ln.lastPark > 16 {
			ln.thrash = 0
		}
	}
	for i := range ln.deltas {
		t.clearPlane(&ln.deltas[i], ln.bit)
	}
	// Deltas killed or splice-updated earlier this cycle come back: the
	// lane re-executes the whole cycle from its start, where they still
	// held. An updated delta is still in the list and must be replaced.
	for i := 0; i < len(t.stash); i++ {
		if t.stash[i].ln == ln {
			d := t.stash[i].d
			k := d.key()
			for j := range ln.deltas {
				if ln.deltas[j].key() == k {
					ln.deltas[j] = ln.deltas[len(ln.deltas)-1]
					ln.deltas = ln.deltas[:len(ln.deltas)-1]
					break
				}
			}
			ln.deltas = append(ln.deltas, d)
			t.stash[i] = t.stash[len(t.stash)-1]
			t.stash = t.stash[:len(t.stash)-1]
			i--
		}
	}
	t.parked &^= ln.bit
	t.wake = append(t.wake, ln)
}

// killAt removes the delta at an exactly-matching location (flip-flop
// field or memory word: plane slot == delta location) from every lane in
// the plane word: the golden overwrite makes the still-parked lanes'
// virtual writes store the same value, so the difference dies.
func (t *vecTracer) killAt(k vkey, plane *uint64) {
	for b := *plane; b != 0; b &= b - 1 {
		ln := t.lanes[bits.TrailingZeros64(b)-1]
		for i := range ln.deltas {
			if ln.deltas[i].key() == k {
				t.stash = append(t.stash, stashed{ln, ln.deltas[i]})
				ln.deltas[i] = ln.deltas[len(ln.deltas)-1]
				ln.deltas = ln.deltas[:len(ln.deltas)-1]
				if len(ln.deltas) == 0 {
					t.emptied = append(t.emptied, ln)
				}
				break
			}
		}
	}
	*plane = 0
}

// killReg is killAt for register writes, whose plane is per register row
// while deltas are per lane word: a lane's plane bit survives the kill
// when it still holds another delta in the same row.
func (t *vecTracer) killReg(w, r, lane int) {
	plane := &t.regPlane[w][r]
	for b := *plane; b != 0; b &= b - 1 {
		li := bits.TrailingZeros64(b)
		ln := t.lanes[li-1]
		found, more := -1, false
		for i := range ln.deltas {
			d := &ln.deltas[i]
			if d.kind == dReg && int(d.a) == w && int(d.b) == r {
				if int(d.c) == lane {
					found = i
				} else {
					more = true
				}
			}
		}
		if found < 0 {
			continue
		}
		t.stash = append(t.stash, stashed{ln, ln.deltas[found]})
		ln.deltas[found] = ln.deltas[len(ln.deltas)-1]
		ln.deltas = ln.deltas[:len(ln.deltas)-1]
		if !more {
			*plane &^= 1 << uint(li)
		}
		if len(ln.deltas) == 0 {
			t.emptied = append(t.emptied, ln)
		}
	}
}

// ---- the march engine ---------------------------------------------------

// VecOutcome is one lane's raw faulty-run outcome, the bit-parallel
// equivalent of the scalar engine's final machine state.
// revent is one recorded golden read of a flip-flop state word: the
// cycle it happened and the union of field bits read that cycle.
type revent struct {
	cyc  uint32
	mask uint64
}

// MarchSched is a per-input-draw recording of the golden run's read
// schedule. The first march of a draw records it; later marches of the
// same draw — whose golden runs are cycle-identical, since the engine
// is deterministic — consult it to decide whether parking a hot lane is
// worth the round trip (see tryPark). Passing the same MarchSched to
// marches of *different* draws would only degrade the heuristic, never
// correctness: the schedule gates performance decisions, not state.
type MarchSched struct {
	recorded bool
	ff       [6][][]revent // [module][state word] ascending read events
	reg      [][]uint32    // [warp*NumRegs+reg] ascending read cycles

	// Last-touch tables: the last cycle the golden run reads OR writes
	// each location, at bit precision for flip-flops and at the
	// divergence planes' granularity for everything else. Zero means
	// untouched after the recording march's start cycle. Unlike the read
	// schedule above, these gate correctness, not just performance: a
	// parked delta whose locations are past their last touch provably
	// survives, unread, to the end of the golden run, so its lane's
	// outcome is already decided (see VecEngine retirement in tryPark).
	ffTouch     [6][]uint32 // [module][state word * 64 + bit]
	regTouch    []uint32    // [warp*NumRegs+reg]
	predTouch   []uint32    // [warp]
	maskTouch   []uint32    // [warp]
	stackTouch  []uint32    // [warp]
	globalTouch []uint32    // [word address]
	sharedTouch []uint32    // [word address]
}

// NewMarchSched returns an empty schedule; the first March it is passed
// to records into it.
func NewMarchSched() *MarchSched { return &MarchSched{} }

func (sc *MarchSched) reset() {
	sc.recorded = false
	for i := range sc.ff {
		for w := range sc.ff[i] {
			sc.ff[i][w] = sc.ff[i][w][:0]
		}
	}
	for r := range sc.reg {
		sc.reg[r] = sc.reg[r][:0]
	}
	for i := range sc.ffTouch {
		clearU32(sc.ffTouch[i])
	}
	clearU32(sc.regTouch)
	clearU32(sc.predTouch)
	clearU32(sc.maskTouch)
	clearU32(sc.stackTouch)
	clearU32(sc.globalTouch)
	clearU32(sc.sharedTouch)
}

func clearU32(s []uint32) {
	for i := range s {
		s[i] = 0
	}
}

func (sc *MarchSched) recordFF(mod, w int, cyc uint32, mask uint64) {
	sc.touchFF(mod, w, cyc, mask)
	evs := sc.ff[mod][w]
	if n := len(evs); n > 0 && evs[n-1].cyc == cyc {
		evs[n-1].mask |= mask
		return
	}
	sc.ff[mod][w] = append(evs, revent{cyc, mask})
}

func (sc *MarchSched) recordReg(row int, cyc uint32) {
	sc.regTouch[row] = cyc
	evs := sc.reg[row]
	if n := len(evs); n > 0 && evs[n-1] == cyc {
		return
	}
	sc.reg[row] = append(evs, cyc)
}

// touchFF stamps the given bits of a flip-flop state word as touched at
// cyc. Touches arrive in cycle order, so each slot ends up holding the
// bit's last touch.
func (sc *MarchSched) touchFF(mod, w int, cyc uint32, mask uint64) {
	tt := sc.ffTouch[mod]
	base := w * 64
	for m := mask; m != 0; m &= m - 1 {
		tt[base+bits.TrailingZeros64(m)] = cyc
	}
}

// touchMem stamps one global or shared memory word as touched at cyc.
func (sc *MarchSched) touchMem(shared bool, addr int, cyc uint32) {
	if shared {
		sc.sharedTouch[addr] = cyc
	} else {
		sc.globalTouch[addr] = cyc
	}
}

// untouchedAfter reports whether the golden run provably never touches
// the delta's differing locations in any cycle > after. diff is the set
// of differing bits for flip-flop deltas and ignored otherwise; non-FF
// kinds are judged at their divergence plane's granularity, which only
// errs conservative.
func (sc *MarchSched) untouchedAfter(d *vdelta, diff uint64, after uint32) bool {
	switch d.kind {
	case dFF:
		tt := sc.ffTouch[d.a]
		base := int(d.b) * 64
		for m := diff; m != 0; m &= m - 1 {
			if tt[base+bits.TrailingZeros64(m)] > after {
				return false
			}
		}
		return true
	case dReg:
		return sc.regTouch[int(d.a)*isa.NumRegs+int(d.b)] <= after
	case dPred:
		return sc.predTouch[d.a] <= after
	case dMask:
		return sc.maskTouch[d.a] <= after
	case dStack:
		return sc.stackTouch[d.a] <= after
	case dGlobal:
		return sc.globalTouch[d.a] <= after
	case dShared:
		return sc.sharedTouch[d.a] <= after
	}
	return false
}

// ffReadSoon reports whether the golden run reads any of the diff bits
// of the given flip-flop word in cycles (after, after+vecParkHorizon].
func (sc *MarchSched) ffReadSoon(mod, w int, after uint32, diff uint64) bool {
	evs := sc.ff[mod][w]
	i, j := 0, len(evs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if evs[h].cyc <= after {
			i = h + 1
		} else {
			j = h
		}
	}
	for ; i < len(evs) && evs[i].cyc <= after+vecParkHorizon; i++ {
		if evs[i].mask&diff != 0 {
			return true
		}
	}
	return false
}

// regReadSoon reports whether the golden run reads the register row in
// cycles (after, after+vecParkHorizon].
func (sc *MarchSched) regReadSoon(row int, after uint32) bool {
	evs := sc.reg[row]
	i, j := 0, len(evs)
	for i < j {
		h := int(uint(i+j) >> 1)
		if evs[h] <= after {
			i = h + 1
		} else {
			j = h
		}
	}
	return i < len(evs) && evs[i] <= after+vecParkHorizon
}

type VecOutcome struct {
	// Global is the final global-memory image; nil when GoldenGlobal is
	// set (the run is bit-identical to the golden run's image) or on DUE.
	Global       []uint32
	GoldenGlobal bool
	Err          error  // the run's DUE error, if any
	Sim          uint64 // cycles actually stepped on a lane machine
	End          uint64 // trajectory end cycle: what the scalar run's Cycles() reports
}

// pooledM is a lane machine awaiting reuse. A machine released by a
// successful park is exactly golden ⊕ deltas as of wlogAt, so within the
// same march (seq) a re-acquire only needs to resync the delta locations
// plus whatever golden wrote since — a tiny fraction of a full CopyFrom.
// wlogAt < 0 marks a machine with untracked divergence (full copy only).
type pooledM struct {
	m      *Machine
	seq    uint64
	wlogAt int
	deltas []vdelta
}

// VecEngine runs bit-parallel marches, reusing its golden machine, lane
// machine pool and tracer buffers across marches. It is single-threaded:
// one engine per campaign worker.
type VecEngine struct {
	golden *Machine
	t      *vecTracer
	pool   []pooledM
	dfree  [][]vdelta // spare pooledM delta buffers
	seq    uint64     // current march sequence number
	hot    []*vlane

	lanes    []vlane
	injOrder []int

	// Early-retirement context for the current march (see MarchOpts):
	// earlyEnd is the draw's golden cycle count (0 disables retirement),
	// finalGlobal its final global-memory image.
	earlyEnd    uint64
	finalGlobal []uint32
}

// NewVecEngine constructs an engine with its golden machine and
// divergence planes instantiated.
func NewVecEngine() *VecEngine {
	e := &VecEngine{golden: New()}
	t := &vecTracer{eng: e}
	for i, st := range vecStates(e.golden) {
		t.states[i] = st
		t.ffGeom[i] = st.Lay.geom
		t.ffPlane[i] = make([]uint64, len(st.words))
		t.ffSnap[i] = make([]uint64, len(st.words))
	}
	e.t = t
	return e
}

// machinePool recycles lane machines across engines: a Machine is a
// quarter-megabyte of register file, so constructing one per concurrent
// hot lane per campaign is a measurable share of a dense campaign's
// wall-clock. Pooled machines carry no campaign state — every acquire
// overwrites them from the golden machine before use.
var machinePool = sync.Pool{New: func() any { return New() }}

// acquire hands out a pool machine (or a fresh one), synced to the golden
// machine's current state: incrementally when the pooled metadata allows,
// by full CopyFrom otherwise.
func (e *VecEngine) acquire() *Machine {
	t := e.t
	if n := len(e.pool); n > 0 {
		p := e.pool[n-1]
		e.pool = e.pool[:n-1]
		if p.deltas != nil {
			e.dfree = append(e.dfree, p.deltas[:0])
		}
		m := p.m
		if p.wlogAt >= 0 && p.seq == e.seq && len(t.wlog)-p.wlogAt <= vecMaxResync {
			e.resync(m, p)
		} else {
			m.CopyFrom(e.golden)
		}
		m.TraceVec(t)
		return m
	}
	m := machinePool.Get().(*Machine)
	m.CopyFrom(e.golden)
	m.TraceVec(t)
	return m
}

// Close returns the engine's pooled lane machines to the shared pool.
// The engine must not be used again after Close.
func (e *VecEngine) Close() {
	for _, p := range e.pool {
		p.m.TraceVec(nil)
		machinePool.Put(p.m)
	}
	e.pool = nil
}

// resync is the incremental CopyFrom: undo the released lane's parked
// deltas and replay golden's writes since the release by setting each
// location to its current golden value. Flip-flop words are skipped —
// materialize overwrites all module words from ffSnap regardless.
func (e *VecEngine) resync(m *Machine, p pooledM) {
	g, t := e.golden, e.t
	apply := func(d *vdelta) {
		switch d.kind {
		case dReg:
			m.regs[d.a][d.b][d.c] = g.regs[d.a][d.b][d.c]
		case dPred:
			m.preds[d.a][d.b] = g.preds[d.a][d.b]
		case dMask:
			m.warpMask[d.a] = g.warpMask[d.a]
		case dStack:
			m.stacks[d.a] = append(m.stacks[d.a][:0], g.stacks[d.a]...)
		case dGlobal:
			m.global[d.a] = g.global[d.a]
		case dShared:
			m.shared[d.a] = g.shared[d.a]
		}
	}
	for i := range p.deltas {
		apply(&p.deltas[i])
	}
	for i := p.wlogAt; i < len(t.wlog); i++ {
		apply(&t.wlog[i])
	}
	m.hiDirty = g.hiDirty
	m.cycle = g.cycle
	m.err = nil
	m.fault = nil
	m.injected = false
	m.machineDone = false
}

// release returns a machine whose divergence from golden is untracked;
// the next acquire must CopyFrom.
func (e *VecEngine) release(m *Machine) {
	m.TraceVec(nil)
	e.pool = append(e.pool, pooledM{m: m, wlogAt: -1})
}

// releaseParked returns a machine that just parked as golden ⊕ deltas,
// recording what the next acquire needs for an incremental resync.
func (e *VecEngine) releaseParked(m *Machine, deltas []vdelta) {
	m.TraceVec(nil)
	var buf []vdelta
	if n := len(e.dfree); n > 0 {
		buf, e.dfree = e.dfree[n-1], e.dfree[:n-1]
	}
	e.pool = append(e.pool, pooledM{
		m:      m,
		seq:    e.seq,
		wlogAt: len(e.t.wlog),
		deltas: append(buf, deltas...),
	})
}

// MarchOpts carries optional cross-march context for one input draw.
// Every field must describe the same draw as the faults passed to March:
// the schedule and the golden-run facts are consulted as ground truth
// about the march's own golden replay.
type MarchOpts struct {
	// Sched is the draw's golden read/touch schedule: nil disables the
	// cross-march heuristics, an unrecorded schedule is recorded by this
	// march, a recorded one is consulted (see MarchSched).
	Sched *MarchSched
	// Start, when non-nil, is a golden checkpoint captured at or before
	// every fault cycle in the march; the golden replay fast-forwards to
	// it instead of re-stepping the prefix from cycle 0.
	Start *Snapshot
	// GoldenCycles and FinalGlobal describe the draw's completed golden
	// run: its cycle count and final global-memory image. When both are
	// set and Sched is recorded, a lane whose parked deltas the golden
	// run provably never touches again retires immediately with its
	// final outcome, and the march ends as soon as every lane is
	// resolved instead of replaying the golden tail.
	GoldenCycles uint64
	FinalGlobal  []uint32
}

// March simulates one group of same-draw transient faults bit-parallel:
// one golden run of prog (grid 1, as every campaign golden runs) with
// each fault as a lane. The returned outcomes are index-aligned with fs
// and bit-identical to what scalar runs of the same faults produce.
func (e *VecEngine) March(prog *kasm.Program, block int, global []uint32, sharedWords int, fs []Fault, budget uint64, opts *MarchOpts) ([]VecOutcome, error) {
	if len(fs) == 0 {
		return nil, nil
	}
	if len(fs) > VecMaxLanes {
		return nil, fmt.Errorf("rtl: march of %d faults exceeds %d lanes", len(fs), VecMaxLanes)
	}
	var sched *MarchSched
	if opts != nil {
		sched = opts.Sched
	}
	g := e.golden
	g.TraceVec(nil)
	gmem := append([]uint32(nil), global...)
	if err := g.launch(prog, 1, block, gmem, sharedWords, budget); err != nil {
		return nil, err
	}
	if opts != nil && opts.Start != nil {
		// Fast-forward the golden replay to the checkpoint; Restore
		// reinstates the snapshot's own cycle budget, so the march's is
		// put back.
		g.Restore(opts.Start)
		g.maxCycles = budget
	}
	e.resetMarch(len(fs), len(gmem), sharedWords)
	t := e.t
	t.cycleBase = g.cycle
	e.earlyEnd, e.finalGlobal = 0, nil
	if opts != nil && opts.GoldenCycles > 0 && opts.FinalGlobal != nil {
		e.earlyEnd, e.finalGlobal = opts.GoldenCycles, opts.FinalGlobal
	}
	t.rec, t.sched = nil, nil
	if sched != nil {
		if sched.recorded {
			t.sched = sched
		} else {
			if sched.ff[0] == nil {
				for i, st := range t.states {
					sched.ff[i] = make([][]revent, len(st.words))
					sched.ffTouch[i] = make([]uint32, len(st.words)*64)
				}
				sched.reg = make([][]uint32, MaxWarps*isa.NumRegs)
				sched.regTouch = make([]uint32, MaxWarps*isa.NumRegs)
				sched.predTouch = make([]uint32, MaxWarps)
				sched.maskTouch = make([]uint32, MaxWarps)
				sched.stackTouch = make([]uint32, MaxWarps)
				sched.globalTouch = make([]uint32, len(gmem))
				sched.sharedTouch = make([]uint32, sharedWords)
			}
			t.rec = sched
		}
	}
	for i := range fs {
		ln := &e.lanes[i]
		// Reset the lane but keep its slices' capacity across marches.
		deltas, spare, writes := ln.deltas[:0], ln.spare[:0], ln.writes[:0]
		*ln = vlane{bit: 1 << uint(i+1), idx: i, deltas: deltas, spare: spare, writes: writes}
		t.lanes = append(t.lanes, ln)
	}
	// Injection order: ascending fault cycle, stable in the input order.
	inj := e.injOrder[:0]
	for i := range fs {
		inj = append(inj, i)
	}
	sort.SliceStable(inj, func(a, b int) bool { return fs[inj[a]].Cycle < fs[inj[b]].Cycle })
	e.injOrder = inj

	g.TraceVec(t)
	gsts := vecStates(g)
	next := 0
	earlyExit := false
	for !g.blockDone && g.err == nil {
		if e.earlyEnd != 0 && t.rec == nil && next == len(inj) && len(e.hot) == 0 {
			if t.parked != 0 {
				e.sweepParked(gsts)
			}
			if t.parked == 0 {
				// Every lane has been resolved (killed, reconverged,
				// finished hot, or retired): the golden tail cannot affect
				// any outcome, so the march is over. Recording marches are
				// excluded — they must observe the full tail for the
				// schedule to be complete.
				earlyExit = true
				break
			}
		}
		if g.cycle >= g.maxCycles {
			g.err = ErrWatchdog
			break
		}
		c := g.cycle
		t.mark = c + 1
		t.cycleOff = append(t.cycleOff, len(t.wlog))
		// The start-of-cycle flip-flop image: materialisations rewind FF
		// state from this copy instead of a per-write undo log.
		for i, st := range gsts {
			copy(t.ffSnap[i], st.words)
		}
		// Faults land at the start of their cycle, exactly where the
		// scalar engine's FlipBit does: the lane starts parked with a
		// single flipped-field delta.
		for next < len(inj) && fs[inj[next]].Cycle == c {
			e.injectLane(t.lanes[inj[next]], fs[inj[next]])
			next++
		}
		t.hot = nil
		g.advance()
		e.endCycle(c)
	}
	g.TraceVec(nil)
	if g.err != nil || next < len(inj) {
		// The golden run failed or ended before every fault cycle — the
		// campaign's prepared draws make both impossible, so give up on
		// the march and let the caller fall back to the scalar engine.
		// A partial recording is discarded with it.
		if t.rec != nil {
			t.rec.reset()
		}
		t.rec, t.sched = nil, nil
		e.abortMarch()
		if g.err != nil {
			return nil, fmt.Errorf("rtl: march golden run failed: %w", g.err)
		}
		return nil, fmt.Errorf("rtl: march golden run ended before every injection cycle")
	}
	if t.rec != nil {
		t.rec.recorded = true
	}
	t.rec, t.sched = nil, nil
	G := g.cycle
	if earlyExit {
		G = e.earlyEnd
	}
	e.finishMarch(G)
	outs := make([]VecOutcome, len(fs))
	for _, ln := range t.lanes {
		outs[ln.idx] = ln.out
	}
	return outs, nil
}

func (e *VecEngine) resetMarch(n, globalWords, sharedWords int) {
	t := e.t
	e.seq++
	t.parked = 0
	t.hot = nil
	t.lanes = t.lanes[:0]
	t.wlog = t.wlog[:0]
	t.cycleOff = t.cycleOff[:0]
	t.mark = 0
	t.stackMark = [MaxWarps]uint64{}
	t.wake = t.wake[:0]
	t.stash = t.stash[:0]
	t.emptied = t.emptied[:0]
	// Planes are all-zero between marches (every delta's bit is cleared
	// when its lane unparks, dies or finalises); only the memory planes'
	// geometry may change across draws. Newly exposed capacity is zero
	// for the same reason.
	if cap(t.globalPlane) < globalWords {
		t.globalPlane = make([]uint64, globalWords)
	}
	t.globalPlane = t.globalPlane[:globalWords]
	if cap(t.sharedPlane) < sharedWords {
		t.sharedPlane = make([]uint64, sharedWords)
	}
	t.sharedPlane = t.sharedPlane[:sharedWords]
	if cap(e.lanes) < n {
		e.lanes = make([]vlane, n)
	}
	e.lanes = e.lanes[:n]
	e.hot = e.hot[:0]
}

// injectLane creates a lane's initial divergence: the golden state word
// with the fault bit flipped, parked at the start of the fault cycle.
func (e *VecEngine) injectLane(ln *vlane, f Fault) {
	t := e.t
	mi := moduleIndex(f.Module)
	st := t.states[mi]
	wi := f.Bit / 64
	val := st.words[wi] ^ 1<<uint(f.Bit%64)
	ln.deltas = append(ln.deltas[:0], vdelta{kind: dFF, a: int32(mi), b: int32(wi), val: val})
	t.ffPlane[mi][wi] |= ln.bit
	t.parked |= ln.bit
}

// endCycle completes golden cycle c for every lane: hot lanes step the
// same cycle in lockstep, lanes the golden run's reads diverged this
// cycle materialise and step it too, kill-emptied lanes finalise as
// reconverged, and hot lanes due for a park attempt diff against golden.
func (e *VecEngine) endCycle(c uint64) {
	g, t := e.golden, e.t

	keep := e.hot[:0]
	for _, ln := range e.hot {
		lm := ln.m
		t.hot = ln
		lm.advance()
		t.hot = nil
		ln.sim++
		if e.finishedHot(ln) {
			continue
		}
		keep = append(keep, ln)
	}
	e.hot = keep

	for _, ln := range t.wake {
		e.materialize(ln, c)
		if e.finishedHot(ln) {
			continue
		}
		if t.sched != nil {
			// With a read schedule, rejected attempts are cheap: retry
			// immediately and let the read-ahead heuristic judge. Hot
			// cycles are the march's dominant cost, so the lane should
			// spend the minimum number of them.
			ln.nextTry = c + 1
			ln.rejKind = 0
		} else {
			ln.nextTry = c + 3 + uint64(1)<<ln.thrash - 1
		}
		ln.tryGap = 1
		e.hot = append(e.hot, ln)
	}
	t.wake = t.wake[:0]

	// A parked lane whose last delta was overwritten is bit-identical to
	// the golden machine from here on: classification Masked, zero
	// further cost. (A lane that unparked after being emptied got its
	// stashed deltas back and is excluded by the parked check.)
	for _, ln := range t.emptied {
		if !ln.done && ln.m == nil && t.parked&ln.bit != 0 && len(ln.deltas) == 0 {
			t.parked &^= ln.bit
			ln.done = true
			ln.goldenDone = true
		}
	}
	t.emptied = t.emptied[:0]
	t.stash = t.stash[:0]

	// No new parks once the golden run is over: parking is sound only
	// while golden has future cycles whose reads test the lane's deltas.
	// The block-done decision was already made when this (final) endCycle
	// runs, so a lane parked here would never have its divergence probed
	// again — finishMarch would declare it golden-equivalent even when its
	// deltas keep the faulty machine running past the golden end (e.g. a
	// corrupted PC whose warp golden already retired). Lanes still hot
	// here run to completion on their own machines instead.
	if len(e.hot) > 0 && !g.blockDone && g.err == nil {
		keep = e.hot[:0]
		for _, ln := range e.hot {
			if g.cycle >= ln.nextTry {
				if e.tryPark(ln) {
					continue
				}
				ln.tryGap *= 2
				if t.sched != nil && ln.tryGap > 4 {
					// Schedule rejections are informed: the divergence is
					// about to be re-read. Re-judge at a short cadence so
					// the lane parks soon after its window opens.
					ln.tryGap = 4
				}
				ln.nextTry = g.cycle + ln.tryGap
			}
			keep = append(keep, ln)
		}
		e.hot = keep
	}
}

// finishedHot finalises a hot lane that erred (DUE), completed its block
// or ran out of its own cycle budget (a hang — where a wedged lane's clock
// lands, see Machine.advance); it reports whether the lane is done.
func (e *VecEngine) finishedHot(ln *vlane) bool {
	lm := ln.m
	if lm.err == nil && !lm.blockDone {
		if lm.cycle < lm.maxCycles {
			return false
		}
		lm.err = ErrWatchdog
	}
	if lm.err != nil {
		ln.out = VecOutcome{Err: lm.err, Sim: ln.sim, End: lm.cycle}
	} else {
		ln.out = VecOutcome{Global: append([]uint32(nil), lm.global...), Sim: ln.sim, End: lm.cycle}
	}
	ln.done = true
	e.release(lm)
	ln.m = nil
	return true
}

// materialize turns a parked lane hot at the end of golden cycle c: copy
// the golden end-of-cycle state, rewind it to the cycle start (flip-flop
// words from the start-of-cycle snapshot, everything else through the
// undo log), apply the lane's deltas, and step the lane through the
// cycle it diverged in.
func (e *VecEngine) materialize(ln *vlane, c uint64) {
	t := e.t
	m := e.acquire()
	for i, st := range vecStates(m) {
		copy(st.words, t.ffSnap[i])
	}
	for i := len(t.wlog) - 1; i >= t.cycleOff[c-t.cycleBase]; i-- {
		en := &t.wlog[i]
		switch en.kind {
		case dReg:
			m.regs[en.a][en.b][en.c] = uint32(en.val)
		case dPred:
			m.preds[en.a][en.b] = uint32(en.val)
		case dMask:
			m.warpMask[en.a] = uint32(en.val)
		case dStack:
			m.stacks[en.a] = append(m.stacks[en.a][:0], en.stack...)
		case dGlobal:
			m.global[en.a] = uint32(en.val)
		case dShared:
			m.shared[en.a] = uint32(en.val)
		}
	}
	m.cycle = c
	m.blockDone = false
	for i := range ln.deltas {
		d := &ln.deltas[i]
		switch d.kind {
		case dFF:
			vecStates(m)[d.a].words[d.b] = d.val
		case dReg:
			m.markWarp(int(d.a))
			m.regs[d.a][d.b][d.c] = uint32(d.val)
		case dPred:
			m.markWarp(int(d.a))
			m.preds[d.a][d.b] = uint32(d.val)
		case dMask:
			m.markWarp(int(d.a))
			m.warpMask[d.a] = uint32(d.val)
		case dStack:
			m.markWarp(int(d.a))
			m.stacks[d.a] = append(m.stacks[d.a][:0], d.stack...)
		case dGlobal:
			m.global[d.a] = uint32(d.val)
		case dShared:
			m.shared[d.a] = uint32(d.val)
		}
	}
	ln.base = ln.deltas
	ln.deltas = nil
	ln.writes = ln.writes[:0]
	ln.spanFrom = t.cycleOff[c-t.cycleBase]
	ln.m = m
	t.hot = ln
	m.advance()
	t.hot = nil
	ln.sim++
}

// sweepParked retires every parked lane whose deltas the golden run
// provably never touches again (see tryPark's retirement for the
// argument). It runs only in the march endgame — all injections placed,
// no hot lanes — where a successful sweep ends the march. A parked
// lane's deltas are kept golden-relative by the kill machinery, so the
// same quiescence test applies.
func (e *VecEngine) sweepParked(gsts [6]*State) {
	g, t := e.golden, e.t
	sc := t.sched
	if sc == nil || sc.ffTouch[0] == nil {
		return
	}
	after := uint32(g.cycle) - 1
	for _, ln := range t.lanes {
		if ln.done || ln.m != nil || t.parked&ln.bit == 0 {
			continue
		}
		if !e.quietFrom(ln.deltas, gsts, after, sc) {
			continue
		}
		var img []uint32
		for i := range ln.deltas {
			d := &ln.deltas[i]
			t.clearPlane(d, ln.bit)
			if d.kind == dGlobal {
				if img == nil {
					img = append([]uint32(nil), e.finalGlobal...)
				}
				img[d.a] = uint32(d.val)
			}
		}
		t.parked &^= ln.bit
		ln.deltas = ln.deltas[:0]
		ln.out = VecOutcome{Global: img, GoldenGlobal: img == nil, Sim: ln.sim, End: e.earlyEnd}
		ln.done = true
	}
}

// quietFrom reports whether every delta's differing locations are past
// their last golden touch (see MarchSched.untouchedAfter).
func (e *VecEngine) quietFrom(deltas []vdelta, gsts [6]*State, after uint32, sc *MarchSched) bool {
	for i := range deltas {
		d := &deltas[i]
		var diff uint64
		if d.kind == dFF {
			diff = d.val ^ gsts[d.a].words[d.b]
		}
		if !sc.untouchedAfter(d, diff, after) {
			return false
		}
	}
	return true
}

// tryPark diffs a hot lane against the golden machine: flip-flop state
// word-by-word across the six module layouts (a bounded, exhaustive
// compare — no FF write tracking needed), everything else over the
// locations either machine touched since the divergence (the lane's
// divergence deltas, its own write log, and the march write log's span).
// A small difference set parks the lane as deltas again (an empty one
// finalises it as reconverged); a large one keeps it hot. Candidate
// locations repeat across cycles, so deltas dedup by linear scan of the
// (≤ vecParkMax) delta list — far cheaper than hashing the candidates.
func (e *VecEngine) tryPark(ln *vlane) bool {
	t := e.t
	if ln.noPark {
		return false
	}
	if len(t.wlog)-ln.spanFrom > vecMaxCand {
		return false
	}
	g, m := e.golden, ln.m
	sc := t.sched
	after := uint32(g.cycle) - 1
	gsts, msts := vecStates(g), vecStates(m)
	// Fast path: if the location that blocked the last attempt still
	// differs and is still about to be re-read, the attempt fails for the
	// same reason at the cost of one compare and one schedule query.
	if sc != nil {
		switch ln.rejKind {
		case 1:
			if diff := gsts[ln.rejMod].words[ln.rejWord] ^ msts[ln.rejMod].words[ln.rejWord]; diff != 0 &&
				sc.ffReadSoon(ln.rejMod, ln.rejWord, after, diff) {
				return false
			}
		case 2:
			a, b := ln.rejRow/isa.NumRegs, ln.rejRow%isa.NumRegs
			if m.regs[a][b] != g.regs[a][b] && sc.regReadSoon(ln.rejRow, after) {
				return false
			}
		}
		ln.rejKind = 0
	}
	deltas := ln.spare[:0]
	full := false
	// The word diff visits each flip-flop word once, so its entries need
	// no deduplication and non-FF candidates can never collide with them.
	// Modules are visited pipeline-first: Pipe, SFU and Sched hold the
	// every-few-cycles re-read state, so a schedule rejection exits after
	// as few words as possible.
	for _, mi := range [6]int{5, 2, 3, 4, 0, 1} {
		if full {
			break
		}
		gw, mw := gsts[mi].words, msts[mi].words
		for wi := range gw {
			if diff := gw[wi] ^ mw[wi]; diff != 0 {
				if sc != nil && sc.ffReadSoon(mi, wi, after, diff) {
					// The golden run reads one of the differing bits within
					// the park horizon; parked, the lane would unpark again
					// almost immediately, so the round trip costs more than
					// the hot steps it would save. Stay hot.
					ln.rejKind, ln.rejMod, ln.rejWord = 1, mi, wi
					ln.spare = deltas[:0]
					return false
				}
				if len(deltas) >= vecParkMax {
					full = true
					break
				}
				deltas = append(deltas, vdelta{kind: dFF, a: int32(mi), b: int32(wi), val: mw[wi]})
			}
		}
	}
	ffCount := len(deltas)
	add := func(d vdelta) {
		k := d.key()
		for i := ffCount; i < len(deltas); i++ {
			if deltas[i].key() == k {
				return
			}
		}
		if len(deltas) >= vecParkMax {
			full = true
			return
		}
		deltas = append(deltas, d)
	}
	hotReject := false
	check := func(cd *vdelta) {
		switch cd.kind {
		case dFF:
			// Covered exhaustively by the module word diff above.
		case dReg:
			if lv := m.regs[cd.a][cd.b][cd.c]; lv != g.regs[cd.a][cd.b][cd.c] {
				if sc != nil && sc.regReadSoon(int(cd.a)*isa.NumRegs+int(cd.b), after) {
					ln.rejKind, ln.rejRow = 2, int(cd.a)*isa.NumRegs+int(cd.b)
					hotReject = true
					full = true
					return
				}
				add(vdelta{kind: dReg, a: cd.a, b: cd.b, c: cd.c, val: uint64(lv)})
			}
		case dPred:
			if lv := m.preds[cd.a][cd.b]; lv != g.preds[cd.a][cd.b] {
				add(vdelta{kind: dPred, a: cd.a, b: cd.b, val: uint64(lv)})
			}
		case dMask:
			if lv := m.warpMask[cd.a]; lv != g.warpMask[cd.a] {
				add(vdelta{kind: dMask, a: cd.a, val: uint64(lv)})
			}
		case dStack:
			if !stackEqual(m.stacks[cd.a], g.stacks[cd.a]) {
				add(vdelta{kind: dStack, a: cd.a,
					stack: append([]simtEntry(nil), m.stacks[cd.a]...)})
			}
		case dGlobal:
			if lv := m.global[cd.a]; lv != g.global[cd.a] {
				add(vdelta{kind: dGlobal, a: cd.a, val: uint64(lv)})
			}
		case dShared:
			if lv := m.shared[cd.a]; lv != g.shared[cd.a] {
				add(vdelta{kind: dShared, a: cd.a, val: uint64(lv)})
			}
		}
	}
	for i := 0; i < len(ln.base) && !full; i++ {
		check(&ln.base[i])
	}
	for i := 0; i < len(ln.writes) && !full; i++ {
		check(&ln.writes[i])
	}
	for i := ln.spanFrom; i < len(t.wlog) && !full; i++ {
		check(&t.wlog[i])
	}
	if hotReject {
		ln.spare = deltas[:0]
		return false
	}
	if full {
		ln.spare = deltas[:0]
		return false
	}
	if len(deltas) > 0 && e.earlyEnd != 0 && sc != nil && sc.ffTouch[0] != nil &&
		e.quietFrom(deltas, gsts, after, sc) {
		// Retirement: the golden run provably never reads or writes any
		// of the differing locations again, so the deltas survive to the
		// end of the run — unread, hence Masked state except for global
		// words — and the lane's outcome is already decided. Finalise it
		// against the draw's known final image without parking.
		var img []uint32
		for i := range deltas {
			d := &deltas[i]
			if d.kind == dGlobal {
				if img == nil {
					img = append([]uint32(nil), e.finalGlobal...)
				}
				img[d.a] = uint32(d.val)
			}
		}
		ln.out = VecOutcome{Global: img, GoldenGlobal: img == nil, Sim: ln.sim, End: e.earlyEnd}
		ln.done = true
		ln.deltas = ln.deltas[:0]
		ln.spare = ln.base[:0]
		ln.base = nil
		ln.writes = ln.writes[:0]
		e.releaseParked(ln.m, deltas)
		ln.m = nil
		return true
	}
	if len(deltas) == 0 {
		ln.done = true
		ln.goldenDone = true
		ln.deltas = deltas
	} else {
		ln.deltas = deltas
		for i := range deltas {
			t.setPlane(&deltas[i], ln.bit)
		}
		t.parked |= ln.bit
	}
	// Recycle the diverged-delta backing as the next attempt's scratch:
	// the two arrays ping-pong across park/unpark rounds.
	ln.lastPark = e.golden.cycle
	ln.spare = ln.base[:0]
	ln.base = nil
	ln.writes = ln.writes[:0]
	e.releaseParked(ln.m, ln.deltas)
	ln.m = nil
	return true
}

// finishMarch finalises every lane once the golden run completed at cycle
// G: a still-parked lane's trajectory is the golden one with its deltas —
// only global-memory deltas are observable, everything else is Masked
// state the block never reads again. Hot lanes run to completion on their
// own machines, exactly like a scalar faulty run.
// G is the golden run's final cycle count: the live golden machine's on
// a full replay, the draw's known goldenCycles on an early exit.
func (e *VecEngine) finishMarch(G uint64) {
	g, t := e.golden, e.t
	for _, ln := range t.lanes {
		if ln.done {
			if ln.goldenDone {
				ln.out = VecOutcome{GoldenGlobal: true, Sim: ln.sim, End: G}
			}
			continue
		}
		if ln.m == nil {
			var img []uint32
			for i := range ln.deltas {
				d := &ln.deltas[i]
				t.clearPlane(d, ln.bit)
				if d.kind == dGlobal {
					if img == nil {
						img = append([]uint32(nil), g.global...)
					}
					img[d.a] = uint32(d.val)
				}
			}
			t.parked &^= ln.bit
			ln.deltas = nil
			ln.out = VecOutcome{Global: img, GoldenGlobal: img == nil, Sim: ln.sim, End: G}
			ln.done = true
			continue
		}
		ln.m.TraceVec(nil)
		for !e.finishedHot(ln) {
			ln.m.advance()
			ln.sim++
		}
	}
}

// abortMarch releases every lane machine and clears every plane bit so
// the engine's buffers are clean for the next march.
func (e *VecEngine) abortMarch() {
	t := e.t
	for _, ln := range t.lanes {
		if ln.m != nil {
			e.release(ln.m)
			ln.m = nil
		}
		for i := range ln.deltas {
			t.clearPlane(&ln.deltas[i], ln.bit)
		}
		ln.deltas = nil
	}
	t.parked = 0
	e.hot = e.hot[:0]
}

func stackEqual(a, b []simtEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
