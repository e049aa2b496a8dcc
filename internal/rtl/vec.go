package rtl

import (
	"fmt"
	"math/bits"
	"slices"
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
)

// Location kinds of divergence deltas and write-log entries.
const (
	dFF     uint8 = iota // a = module slot (moduleStates order), b = 64-bit word index
	dReg                 // a = warp, b = register, c = lane
	dPred                // a = warp, b = predicate index
	dMask                // a = warp (top-of-stack active mask)
	dStack               // a = warp (whole SIMT stack image)
	dGlobal              // a = word address
	dShared              // a = word address
)

// vdelta is one (location, value) pair. As a lane delta, val/stack hold
// the *lane's* value at the location; as a march write-log entry, they
// hold the golden value *before* the write (the undo image). As a park
// candidate, only the location is used.
type vdelta struct {
	kind    uint8
	a, b, c int32
	val     uint64
	stack   []simtEntry
}

// vkey is a vdelta's location: a hot lane's write record, a park
// candidate, and the key of park-candidate deduplication.
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
	writes   []vkey   // hot: locations the lane wrote (park candidates)
	spanFrom int      // hot: write-log index at materialisation
	nextTry  uint64   // hot: earliest golden cycle for the next park attempt
	tryGap   uint64   // hot: park-attempt backoff
	noPark   bool     // hot: write log overflowed; lane runs to completion

	lastPark uint64 // golden cycle of the last successful park
	thrash   uint32 // consecutive quick park→unpark round trips (see unpark)

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
}

// TraceVec attaches t to every module state so the machine's semantic
// accesses reach the march engine; pass nil to detach.
func (m *Machine) TraceVec(t *vecTracer) {
	states := m.moduleStates()
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
// register-file copy by the two machines' warp and row marks, and leaves
// the machine with no pending fault or error.
func (m *Machine) CopyFrom(src *Machine) {
	msts, ssts := m.moduleStates(), src.moduleStates()
	for i := range msts {
		copy(msts[i].words, ssts[i].words)
	}
	for w := 0; w < src.hiDirty; w++ {
		m.setRows(w, src.page(w)[:src.hiReg])
		m.preds[w] = src.preds[w]
		m.stacks[w] = append(m.stacks[w][:0], src.stacks[w]...)
		m.warpMask[w] = src.warpMask[w]
	}
	m.adopt(src.hiDirty, src.hiReg, src.runPos, src.global, src.shared)
	m.fault = nil
}

// ---- tracer hooks -------------------------------------------------------

func (h *vlane) recordWrite(k vkey) {
	if len(h.writes) >= vecMaxLaneWrites {
		h.noPark = true
		h.writes = h.writes[:0]
		return
	}
	h.writes = append(h.writes, k)
}

func (t *vecTracer) onFFRead(mod, fi int) {
	if t.hot != nil {
		return
	}
	g := &t.ffGeom[mod][fi]
	w := int(g.word)
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
	if p := t.regPlane[w][r]; p != 0 {
		t.trigger(p)
	}
}

func (t *vecTracer) onRegWrite(w, r, lane int, old uint32) {
	if h := t.hot; h != nil {
		if !h.noPark {
			h.recordWrite(vkey{dReg, int32(w), int32(r), int32(lane)})
		}
		return
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
			h.recordWrite(vkey{dPred, int32(w), int32(idx), 0})
		}
		return
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
			h.recordWrite(vkey{dMask, int32(w), 0, 0})
		}
		return
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
			h.recordWrite(vkey{dStack, int32(w), 0, 0})
		}
		return
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
			h.recordWrite(vkey{k, int32(addr), 0, 0})
		}
		return
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
}

// NewVecEngine returns an engine on a pooled golden machine: a closed one,
// whose lanes' write logs and deltas, march write log and planes keep
// their capacity, when vecPool has one. Regrowing them for every
// campaign was a third of what a paper-scale characterisation allocated.
func NewVecEngine() *VecEngine {
	e, ok := vecPool.Get().(*VecEngine)
	if !ok {
		e = &VecEngine{t: &vecTracer{}}
		e.t.eng = e
	}
	e.golden = Pooled()
	t := e.t
	for i, st := range e.golden.moduleStates() {
		t.states[i] = st
		t.ffGeom[i] = st.Lay.geom
		if t.ffPlane[i] == nil {
			t.ffPlane[i] = make([]uint64, len(st.words))
			t.ffSnap[i] = make([]uint64, len(st.words))
		}
	}
	return e
}

var vecPool sync.Pool

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
	m := Pooled()
	m.CopyFrom(e.golden)
	m.TraceVec(t)
	return m
}

// Close returns the engine's golden and lane machines to the machine
// pool and the engine, with its buffers, to the engine pool. The caller
// must not use it again after Close.
func (e *VecEngine) Close() {
	for _, p := range e.pool {
		p.m.Release()
		if p.deltas != nil {
			e.dfree = append(e.dfree, p.deltas[:0])
		}
	}
	clear(e.pool)
	e.pool = e.pool[:0]
	e.golden.Release()
	e.golden, e.t.states = nil, [6]*State{}
	vecPool.Put(e)
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
			m.markReg(int(d.b))
			m.wpage(int(d.a))[d.b][d.c] = g.page(int(d.a))[d.b][d.c]
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

// MarchOpts carries optional context for one input draw. Every field must
// describe the same draw as the faults passed to March: the golden-run
// facts are consulted as ground truth about the march's own golden replay.
type MarchOpts struct {
	// Start, when non-nil, is a golden checkpoint captured at or before
	// every fault cycle in the march; the golden replay fast-forwards to
	// it instead of re-stepping the prefix from cycle 0.
	Start *Snapshot
	// GoldenCycles, when non-zero, is the cycle count of the draw's
	// completed golden run: the march ends as soon as every lane is
	// resolved instead of replaying the golden tail.
	GoldenCycles uint64
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
	g := e.golden
	g.TraceVec(nil)
	gmem := append([]uint32(nil), global...)
	if err := g.launch(prog, 1, block, gmem, sharedWords, budget); err != nil {
		return nil, err
	}
	var goldenCycles uint64
	if opts != nil {
		if opts.Start != nil {
			// Fast-forward the golden replay to the checkpoint; Restore
			// reinstates the snapshot's own cycle budget, so the march's
			// is put back.
			g.Restore(opts.Start)
			g.maxCycles = budget
		}
		goldenCycles = opts.GoldenCycles
	}
	e.resetMarch(len(fs), len(gmem), sharedWords)
	t := e.t
	t.cycleBase = g.cycle
	for i := range fs {
		ln := &e.lanes[i]
		// Reset the lane but keep its slices' capacity across marches. A
		// lane that ended hot holds its delta array as base.
		deltas, spare, writes := ln.deltas[:0], ln.spare[:0], ln.writes[:0]
		if deltas == nil {
			deltas = ln.base[:0]
		}
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
	gsts := g.moduleStates()
	next := 0
	earlyExit := false
	for !g.blockDone && g.err == nil {
		if goldenCycles != 0 && next == len(inj) && len(e.hot) == 0 && t.parked == 0 {
			// Every lane has been resolved (killed, reconverged or finished
			// hot): the golden tail cannot affect any outcome, so the march
			// is over.
			earlyExit = true
			break
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
		e.abortMarch()
		if g.err != nil {
			return nil, fmt.Errorf("rtl: march golden run failed: %w", g.err)
		}
		return nil, fmt.Errorf("rtl: march golden run ended before every injection cycle")
	}
	G := g.cycle
	if earlyExit {
		G = goldenCycles
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
		ln.nextTry = c + 3 + uint64(1)<<ln.thrash - 1
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
	for i, st := range m.moduleStates() {
		copy(st.words, t.ffSnap[i])
	}
	for i := len(t.wlog) - 1; i >= t.cycleOff[c-t.cycleBase]; i-- {
		en := &t.wlog[i]
		switch en.kind {
		case dReg:
			m.markReg(int(en.b))
			m.wpage(int(en.a))[en.b][en.c] = uint32(en.val)
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
			m.moduleStates()[d.a].words[d.b] = d.val
		case dReg:
			m.markWarp(int(d.a))
			m.markReg(int(d.b))
			m.wpage(int(d.a))[d.b][d.c] = uint32(d.val)
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
	gsts, msts := g.moduleStates(), m.moduleStates()
	deltas := ln.spare[:0]
	full := false
	// The word diff visits each flip-flop word once, so its entries need
	// no deduplication and non-FF candidates can never collide with them.
	for mi := range gsts {
		if full {
			break
		}
		gw, mw := gsts[mi].words, msts[mi].words
		for wi := range gw {
			if gw[wi] != mw[wi] {
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
	check := func(cd vkey) {
		switch cd.kind {
		case dFF:
			// Covered exhaustively by the module word diff above.
		case dReg:
			if lv := m.page(int(cd.a))[cd.b][cd.c]; lv != g.page(int(cd.a))[cd.b][cd.c] {
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
			if !slices.Equal(m.stacks[cd.a], g.stacks[cd.a]) {
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
		check(ln.base[i].key())
	}
	for i := 0; i < len(ln.writes) && !full; i++ {
		check(ln.writes[i])
	}
	for i := ln.spanFrom; i < len(t.wlog) && !full; i++ {
		check(t.wlog[i].key())
	}
	if full {
		ln.spare = deltas[:0]
		return false
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
			ln.deltas = ln.deltas[:0]
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
		ln.deltas = ln.deltas[:0]
	}
	t.parked = 0
	e.hot = e.hot[:0]
}
