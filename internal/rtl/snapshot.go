package rtl

import (
	"slices"

	"gpufi/internal/isa"
	"gpufi/internal/kasm"
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
// from multiple machines.
type Snapshot struct {
	mods [6][]uint64 // Sched, Pipe, FP32, INT, SFU, SFUCtl words

	// warps covers every warp up to the machine's dirty high-water mark
	// (at least the block's live warps). Warps beyond len(warps) are in
	// the canonical empty-warp state, which Restore re-establishes
	// without storing or copying their 8 KiB register rows — the
	// dominant cost of a snapshot cycle at MaxWarps rows.
	warps  []warpState
	global []uint32
	shared []uint32

	prog *kasm.Program // shared, immutable
	imem []isa.Word    // shared, immutable

	grid, block int
	curBlock    int
	nwarps      int
	cycle       uint64
	maxCycles   uint64
	blockDone   bool
}

// warpState is one warp's behavioural memory: register-file row,
// predicate file, SIMT stack and top-of-stack active mask.
type warpState struct {
	regs  [isa.NumRegs][WarpSize]uint32
	preds [isa.NumPreds]uint32
	stack []simtEntry
	mask  uint32
}

// Cycle returns the cycle count at which the snapshot was captured:
// exactly Cycle() cycles have been executed, and the fault scheduled for
// any cycle >= Cycle() has not fired yet.
func (s *Snapshot) Cycle() uint64 { return s.cycle }

// moduleStates lists the six module states in Snapshot.mods order.
func (m *Machine) moduleStates() [6]*State {
	return [6]*State{m.Sched, m.Pipe, m.FP32, m.INT, m.SFU, m.SFUCtl}
}

// Snapshot captures the machine's complete mutable state. It must be
// called between cycles (Run invokes its checkpoint sink at cycle
// boundaries); the program and instruction memory are shared by
// reference, everything else is deep-copied.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		warps:     make([]warpState, m.hiDirty),
		global:    append([]uint32(nil), m.global...),
		shared:    append([]uint32(nil), m.shared...),
		prog:      m.prog,
		imem:      m.imem,
		grid:      m.grid,
		block:     m.block,
		curBlock:  m.curBlock,
		nwarps:    m.nwarps,
		cycle:     m.cycle,
		maxCycles: m.maxCycles,
		blockDone: m.blockDone,
	}
	for i, st := range m.moduleStates() {
		s.mods[i] = append([]uint64(nil), st.words...)
	}
	for w := range s.warps {
		ws := &s.warps[w]
		ws.regs = m.regs[w]
		ws.preds = m.preds[w]
		ws.stack = append([]simtEntry(nil), m.stacks[w]...)
		ws.mask = m.warpMask[w]
	}
	return s
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
		m.regs[w] = ws.regs
		m.preds[w] = ws.preds
		m.stacks[w] = append(m.stacks[w][:0], ws.stack...)
		m.warpMask[w] = ws.mask
	}
	// Warps beyond the snapshot's high-water mark are canonical-empty in
	// its implied state; reset only the ones this machine dirtied.
	for w := len(s.warps); w < m.hiDirty; w++ {
		m.resetWarp(w)
	}
	m.hiDirty = len(s.warps)
	// Run aliases the caller's global slice; never restore into it.
	if !m.globalOwned || cap(m.global) < len(s.global) {
		m.global = make([]uint32, len(s.global))
		m.globalOwned = true
	}
	m.global = m.global[:len(s.global)]
	copy(m.global, s.global)
	if cap(m.shared) < len(s.shared) {
		m.shared = make([]uint32, len(s.shared))
	}
	m.shared = m.shared[:len(s.shared)]
	copy(m.shared, s.shared)
	m.prog = s.prog
	m.imem = s.imem
	m.grid, m.block = s.grid, s.block
	m.curBlock = s.curBlock
	m.nwarps = s.nwarps
	m.cycle = s.cycle
	m.jumped = 0
	m.maxCycles = s.maxCycles
	m.blockDone = s.blockDone
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
		ws := &s.warps[w]
		if m.warpMask[w] != ws.mask || m.preds[w] != ws.preds || m.regs[w] != ws.regs ||
			!slices.Equal(m.stacks[w], ws.stack) {
			return false
		}
	}
	return slices.Equal(m.shared, s.shared) && slices.Equal(m.global, s.global)
}

// Global exposes the machine's global-memory image, which RunFromPruned
// restores from the snapshot and the resumed run mutates in place.
// Campaign classifiers compare it against the golden image.
func (m *Machine) Global() []uint32 { return m.global }
