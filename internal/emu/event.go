package emu

import (
	"math/bits"

	"gpufi/internal/isa"
)

// Hooks instruments execution. Post, when non-nil, fires after each
// warp-level instruction that executes on at least one lane (and may
// corrupt its results). Hook invocations see a reused *Event; they must
// not retain it.
type Hooks struct {
	Post func(*Event)

	// ArmAfter and OnArm implement hook-free countdown execution. When
	// OnArm is non-nil the launch starts unarmed: Post stays inert
	// (no per-instruction closure dispatch or operand capture) until the
	// launch's DynThreadInstrs counter could reach ArmAfter within one
	// warp instruction — i.e. the hooks are guaranteed live before the
	// counter crosses ArmAfter. At arming time OnArm is called once with
	// the Result accumulated so far, so an injector can seed its dynamic
	// instruction counter from the uninstrumented prefix. When OnArm is
	// nil, ArmAfter is ignored and hooks behave as always.
	ArmAfter uint64
	OnArm    func(*Result)
}

// Event describes one executed warp-level instruction to instrumentation
// hooks — the NVBitFI injection surface.
type Event struct {
	Block  int
	Warp   int
	PC     int
	Instr  isa.Instr
	Active uint32 // lanes that execute the instruction

	w    *warp
	ex   *exec
	srcA [WarpSize]uint32
	srcB [WarpSize]uint32
	dst  [WarpSize]uint32
}

func (ex *exec) prepareEvent(blockID int, w *warp, pc int, in isa.Instr, guard uint32) {
	ex.ev.Block = blockID
	ex.ev.Warp = w.id
	ex.ev.PC = pc
	ex.ev.Instr = in
	ex.ev.Active = guard
	ex.ev.w = w
	ex.ev.ex = ex
}

// ActiveCount returns the number of lanes executing the instruction.
func (ev *Event) ActiveCount() int { return bits.OnesCount32(ev.Active) }

// Disarm declares that this hook will neither observe nor mutate anything
// for the rest of the launch: from the next instruction on, the emulator
// stops invoking the Post hook and capturing events. One-shot fault
// injectors call it right after firing, so the (often long) post-fault
// tail does not pay per-instruction event capture. Calling it from a hook
// that would still have acted is a caller bug: the remaining calls are
// silently skipped.
func (ev *Event) Disarm() { ev.ex.post = nil }

// NthActiveLane returns the lane index of the n-th (0-based) set bit of
// Active, or -1 when n is out of range. Fault injectors use it to map a
// global dynamic thread-instruction index onto a lane.
func (ev *Event) NthActiveLane(n int) int {
	m := ev.Active
	for ; m != 0; m &= m - 1 {
		if n == 0 {
			return bits.TrailingZeros32(m)
		}
		n--
	}
	return -1
}

// SrcA returns the first operand value read by lane (Post hook only). The
// operand accessors are defined for data instructions, not for BRA, EXIT,
// BAR or NOP.
func (ev *Event) SrcA(lane int) uint32 { return ev.srcA[lane] }

// SrcB returns the second operand value read by lane (Post hook only).
func (ev *Event) SrcB(lane int) uint32 { return ev.srcB[lane] }

// DstValue returns the result produced by lane and whether the instruction
// produces a data result at all (Post hook only). For stores it is the
// stored value.
func (ev *Event) DstValue(lane int) (uint32, bool) {
	if ev.Instr.Op.HasDst() || ev.Instr.Op == isa.OpGST || ev.Instr.Op == isa.OpSST {
		return ev.dst[lane], true
	}
	return 0, false
}

// CorruptDst overwrites the data output of lane with newBits: the
// destination register for register-writing instructions, or the stored
// memory word for stores. It reports whether the instruction had a
// corruptible output. This is the NVBitFI "inject into instruction
// output" primitive.
func (ev *Event) CorruptDst(lane int, newBits uint32) bool {
	in := ev.Instr
	switch {
	case in.Op.HasDst():
		ev.w.setReg(in.Dst, lane, newBits)
		ev.dst[lane] = newBits
		return true
	case in.Op == isa.OpGST:
		addr := int64(int32(ev.srcA[lane])) + int64(in.Imm)
		if addr >= 0 && addr < int64(len(ev.ex.l.Global)) {
			ev.ex.l.Global[addr] = newBits
			ev.dst[lane] = newBits
			return true
		}
	case in.Op == isa.OpSST:
		addr := int64(int32(ev.srcA[lane])) + int64(in.Imm)
		if addr >= 0 && addr < int64(len(ev.ex.shared)) {
			ev.ex.shared[addr] = newBits
			ev.dst[lane] = newBits
			return true
		}
	}
	return false
}
