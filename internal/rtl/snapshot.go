package rtl

import (
	"slices"

	"gpufi/internal/isa"
)

// Snapshot is a bit-exact copy of every piece of Machine state that
// evolves during Run: the named flip-flop vectors of all six Table I
// modules, the behavioural memories (register file, predicates, SIMT
// stacks, top-of-stack masks, global and shared memory), the launch
// geometry and the cycle counter. Restoring a snapshot and resuming with
// RunFromPruned is guaranteed to replay the exact cycle sequence the original
// run would have executed from that point — the property the campaign
// fast-forward optimisation in internal/rtlfi relies on for bit-identical
// results.
//
// A Snapshot is immutable after capture and safe to Restore concurrently
// from multiple machines. That is what lets the checkpoints of one run
// share every image that did not change between them (see snapshot).
type Snapshot struct {
	mods [6][]uint64 // module state words in moduleStates order

	// warps covers every warp up to the machine's dirty high-water mark
	// (at least the block's live warps), and regs their first rows
	// register rows (the machine's row mark), warp by warp. Warps beyond
	// len(warps) are canonical-empty and rows beyond rows are zero, so
	// neither is stored: a micro-benchmark keeps under 1 KiB of a warp's
	// 8 KiB register file.
	warps  []warpState
	regs   [][WarpSize]uint32
	rows   int
	global []uint32
	shared []uint32

	runPos // the program and instruction memory are shared, immutable
}

// warpState is one warp's behavioural memory apart from its register
// rows (Snapshot.regs): predicate file, SIMT stack and top-of-stack
// active mask.
type warpState struct {
	preds [isa.NumPreds]uint32
	stack []simtEntry
	mask  uint32
}

// Cycle returns the cycle count at which the snapshot was captured:
// exactly Cycle() cycles have been executed, and the fault scheduled for
// any cycle >= Cycle() has not fired yet.
func (s *Snapshot) Cycle() uint64 { return s.cycle }

// Rows returns how many register rows per warp the snapshot holds: the
// capturing machine's row mark (every row at or above it was zero).
func (s *Snapshot) Rows() int { return s.rows }

// warpRegs returns warp w's stored register rows.
func (s *Snapshot) warpRegs(w int) [][WarpSize]uint32 {
	return s.regs[w*s.rows : (w+1)*s.rows]
}

// moduleStates lists a machine's module states in moduleIndex order
// (Snapshot.mods and Liveness use it, so Fault.Module maps with
// moduleIndex).
func (m *Machine) moduleStates() [6]*State {
	return [6]*State{m.FP32, m.INT, m.SFU, m.SFUCtl, m.Sched, m.Pipe}
}

// Snapshot captures the machine's complete mutable state. It must be
// called between cycles (Run invokes its checkpoint sink at cycle
// boundaries); the program and instruction memory are shared by
// reference, everything else is deep-copied.
func (m *Machine) Snapshot() *Snapshot { return m.snapshot(&noSnapshot) }

// noSnapshot is the empty predecessor of a run's first capture.
var noSnapshot Snapshot

// snapshot is Snapshot for the checkpoints of one run: each image equal
// to prev's — a module's words, the register rows, the warp states, the
// global or the shared memory — is prev's slice, not a copy. Snapshots
// are immutable, so sharing is safe.
func (m *Machine) snapshot(prev *Snapshot) *Snapshot {
	s := &Snapshot{
		warps:  prev.warps,
		regs:   prev.regs,
		rows:   m.hiReg,
		global: sameOrCopy(prev.global, m.global),
		shared: sameOrCopy(prev.shared, m.shared),
		runPos: m.runPos,
	}
	for i, st := range m.moduleStates() {
		s.mods[i] = sameOrCopy(prev.mods[i], st.words)
	}
	sameWarps := len(prev.warps) == m.hiDirty
	sameRegs := sameWarps && prev.rows == s.rows
	for w := range prev.warps {
		ws := &prev.warps[w]
		sameRegs = sameRegs && slices.Equal(prev.warpRegs(w), m.page(w)[:s.rows])
		sameWarps = sameWarps && ws.preds == m.preds[w] && ws.mask == m.warpMask[w] && slices.Equal(ws.stack, m.stacks[w])
	}
	if !sameRegs {
		s.regs = make([][WarpSize]uint32, m.hiDirty*m.hiReg)
		for w := range m.hiDirty {
			copy(s.warpRegs(w), m.page(w)[:s.rows])
		}
	}
	if !sameWarps {
		s.warps = make([]warpState, m.hiDirty)
		for w := range s.warps {
			s.warps[w] = warpState{m.preds[w], append([]simtEntry(nil), m.stacks[w]...), m.warpMask[w]}
		}
	}
	return s
}

// sameOrCopy returns prev when it holds cur's values, else a copy of cur.
func sameOrCopy[T comparable](prev, cur []T) []T {
	if prev != nil && slices.Equal(prev, cur) {
		return prev
	}
	return append([]T(nil), cur...)
}

// Restore overwrites the machine's state with a snapshot's. Any fault
// scheduled with Inject stays pending, so the usual sequence is
// Inject followed by RunFromPruned. Global and shared memory are copied into
// machine-owned slices: restoring never aliases the snapshot, and the
// snapshot stays valid for further restores.
func (m *Machine) Restore(s *Snapshot) {
	for i, st := range m.moduleStates() {
		copy(st.words, s.mods[i])
	}
	for w := range s.warps {
		ws := &s.warps[w]
		m.setRows(w, s.warpRegs(w))
		m.preds[w] = ws.preds
		m.stacks[w] = append(m.stacks[w][:0], ws.stack...)
		m.warpMask[w] = ws.mask
	}
	m.adopt(len(s.warps), s.rows, s.runPos, s.global, s.shared)
}

// setRows overwrites warp w's leading register rows with src and zeroes
// the rest of them up to the machine's row mark. A warp without a page
// gets one only when src holds a non-zero row, so a machine holds the
// pages of the warps that its own runs, and the states it copied, wrote.
func (m *Machine) setRows(w int, src [][WarpSize]uint32) {
	r := m.regs[w]
	if r == nil {
		if !slices.ContainsFunc(src, func(row [WarpSize]uint32) bool { return row != [WarpSize]uint32{} }) {
			return
		}
		r = m.wpage(w)
	}
	if n := copy(r[:], src); n < m.hiReg {
		clear(r[n:m.hiReg])
	}
}

// adopt finishes a Restore or CopyFrom once warps [0, hiDirty) hold the
// source's: it resets the warps beyond them that this machine dirtied
// (rows at or above hiReg are zero in the source), takes the source's
// marks, run position and memory images, and clears the run status.
// Memory is copied into machine-owned slices: Run aliases the caller's
// global slice, so never copy into that.
func (m *Machine) adopt(hiDirty, hiReg int, pos runPos, global, shared []uint32) {
	for w := hiDirty; w < m.hiDirty; w++ {
		m.resetWarp(w)
	}
	m.hiDirty, m.hiReg = hiDirty, hiReg
	if !m.globalOwned {
		m.global, m.globalOwned = nil, true
	}
	m.global = append(m.global[:0], global...)
	m.shared = append(m.shared[:0], shared...)
	m.runPos = pos
	m.jumped = 0
	m.err = nil
	m.injected = false
	m.machineDone = false
}

// RunFromPruned restores a snapshot and resumes execution until
// completion, DUE, or the cycle budget expires. maxCycles is the same
// absolute budget Run takes (the cycle counter resumes from
// Snapshot.Cycle(), it is not reset). A fault scheduled with Inject fires
// when the resumed run reaches its cycle; faults scheduled before the
// snapshot's cycle never fire — callers must pick a snapshot at or before
// the injection cycle.
//
// The resumed run is pruned at golden reconvergence: at every cycle
// boundary that is a multiple of every, once any injected fault has
// fired, golden(cycle) may supply the fault-free run's snapshot for that
// exact cycle. If the machine's state is bit-identical to it, the
// remaining cycles are guaranteed to replay the golden tail — the run
// stops there and RunFromPruned reports pruned=true, leaving mid-run
// state in the machine. Callers then take the golden run's outputs,
// cycle count and nil error as the (bit-exact) result. Transient faults
// are usually overwritten within a few pipeline stages, so most Masked
// injections prune at the first boundary after the fault.
func (m *Machine) RunFromPruned(s *Snapshot, maxCycles, every uint64, golden func(uint64) *Snapshot) (pruned bool, err error) {
	m.Restore(s)
	m.maxCycles = maxCycles
	err = m.runLoop(every, nil, golden)
	return m.pruned, err
}

// matches reports whether the machine's entire mutable state is
// bit-identical to the snapshot's: same cycle and block progress, same
// module flip-flops, same per-warp memories, same global and shared
// images. A true result means the remaining run deterministically
// replays the snapshot's run. A conservative false (e.g. differing
// dirty high-water marks) is always safe — it only costs the prune.
func (m *Machine) matches(s *Snapshot) bool {
	if m.cycle != s.cycle || m.curBlock != s.curBlock || m.blockDone != s.blockDone ||
		m.nwarps != s.nwarps || m.hiDirty != len(s.warps) {
		return false
	}
	for i, st := range m.moduleStates() {
		if !slices.Equal(st.words, s.mods[i]) {
			return false
		}
	}
	for w := range s.warps {
		ws, r := &s.warps[w], m.page(w)
		if m.warpMask[w] != ws.mask || m.preds[w] != ws.preds ||
			!slices.Equal(r[:s.rows], s.warpRegs(w)) ||
			!slices.Equal(m.stacks[w], ws.stack) {
			return false
		}
		// Rows past the snapshot's mark are zero in its state.
		for row := s.rows; row < m.hiReg; row++ {
			if r[row] != ([WarpSize]uint32{}) {
				return false
			}
		}
	}
	return slices.Equal(m.shared, s.shared) && slices.Equal(m.global, s.global)
}

// Global exposes the machine's global-memory image, which RunFromPruned
// restores from the snapshot and the resumed run mutates in place.
// Campaign classifiers compare it against the golden image.
func (m *Machine) Global() []uint32 { return m.global }
