package emu

import (
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// The interpreter (fastpath.go) runs a pre-decoded program representation
// instead of raw isa.Instr values. Decoding resolves once, per program,
// everything the reference interpreter re-derives on every executed lane:
// guard predicate index and polarity, operand register indices, the
// HasDst/RZ destination test, UseImmB selection and branch targets. Each
// *kasm.Program carries its own decoded form, which is sound because
// programs are built once by kasm.Finalize and never mutated afterwards
// (a property every existing workload already relies on for label
// resolution); a kernel a corrupted run assembled once is garbage, decoded
// form included, as soon as nothing holds it.

// dispatch classes of a decoded instruction. Everything that is not
// control flow goes through execDataFast.
const (
	kData uint8 = iota
	kBRA
	kEXIT
	kBAR
	kNOP
)

// dinstr is one pre-decoded instruction. Field order keeps the struct
// compact; it is copied by pointer only.
type dinstr struct {
	op   isa.Opcode
	kind uint8
	gIdx uint8 // guard predicate index
	dst  uint8
	srcA uint8
	srcB uint8
	srcC uint8
	pIdx uint8 // PDst predicate index
	pNeg bool  // PDst negation (write complement, read complement)
	// writeDst is HasDst with the RZ sink resolved at decode time: the
	// fast path routes non-writing results into a scratch row instead of
	// testing Dst != RZ per lane.
	writeDst bool
	useImm   bool
	cmp      isa.Cmp
	gXor     uint32 // 0 or ^0: guard mask = preds[gIdx] ^ gXor
	pXor     uint32 // 0 or ^0: PDst read mask = preds[pIdx] ^ pXor
	imm      int32
	target   int32
	reconv   int32
}

// dprog is a decoded program. len(ins) always equals len(Prog.Instrs) of
// the program it was decoded from.
type dprog struct {
	ins []dinstr
	// perWarp: no BAR and no shared-memory access, so the unit of replay
	// is the warp (see Launch.Replay).
	perWarp bool
	// laneSafe: perWarp, and no guard depends on a loaded word (see
	// LaneSafe).
	laneSafe bool
}

// LaneSafe reports whether a launch of p may run a warp with only some of
// its lanes live (see Launch.Replay): its program has no BAR and no
// shared-memory access, and no instruction's guard predicate — a BRA's,
// an EXIT's or a data instruction's — can depend on a value a GLD loaded.
// Every lane of such a program then executes the instructions its thread
// and block index choose, whatever it loads, and counts them.
func LaneSafe(p *kasm.Program) bool { return p != nil && decoded(p).laneSafe }

// untaintedGuards is LaneSafe's guard rule, a flow-insensitive taint pass
// run to a fixed point: a register is tainted when a GLD writes it or an
// instruction computes it from a tainted register or selector predicate,
// a predicate when an ISETP or FSETP sets it from a tainted register. RZ
// and PT are never written, so they stay clean.
func untaintedGuards(prog []isa.Instr) bool {
	var regs uint64 // tainted registers, one bit each
	var preds uint8 // tainted predicates
	reg := func(r isa.Reg) bool { return regs>>r&1 == 1 }
	for changed := true; changed; {
		changed = false
		for _, in := range prog {
			if preds>>in.Guard.Index()&1 == 1 {
				return false
			}
			n := in.Op.NumSrcs()
			t := in.Op == isa.OpGLD || n >= 1 && reg(in.SrcA) ||
				n >= 2 && !in.UseImmB && reg(in.SrcB) || n >= 3 && reg(in.SrcC)
			switch in.Op {
			case isa.OpSEL, isa.OpIMNMX, isa.OpFMNMX:
				t = t || preds>>in.PDst.Index()&1 == 1
			}
			if !t {
				continue
			}
			r, p := regs, preds
			if in.Op.SetsPred() && in.PDst.Index() != isa.PT {
				preds |= 1 << in.PDst.Index()
			} else if in.Op.HasDst() && in.Dst != isa.RZ {
				regs |= 1 << in.Dst
			}
			changed = changed || regs != r || preds != p
		}
	}
	return true
}

func decodeProgram(p *kasm.Program) *dprog {
	dp := &dprog{ins: make([]dinstr, len(p.Instrs)), perWarp: true}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		d := &dp.ins[i]
		d.op = in.Op
		d.gIdx = uint8(in.Guard.Index())
		if in.Guard.Neg() {
			d.gXor = ^uint32(0)
		}
		d.dst = uint8(in.Dst)
		d.srcA = uint8(in.SrcA)
		d.srcB = uint8(in.SrcB)
		d.srcC = uint8(in.SrcC)
		d.pIdx = uint8(in.PDst.Index())
		d.pNeg = in.PDst.Neg()
		if d.pNeg {
			d.pXor = ^uint32(0)
		}
		d.writeDst = in.Op.HasDst() && in.Dst != isa.RZ
		d.useImm = in.UseImmB
		d.cmp = in.Cmp
		d.imm = in.Imm
		d.target = int32(in.Target)
		d.reconv = int32(in.Reconv)
		switch in.Op {
		case isa.OpBAR, isa.OpSLD, isa.OpSST:
			dp.perWarp = false
		}
		switch in.Op {
		case isa.OpBRA:
			d.kind = kBRA
		case isa.OpEXIT:
			d.kind = kEXIT
		case isa.OpBAR:
			d.kind = kBAR
		case isa.OpNOP:
			d.kind = kNOP
		default:
			d.kind = kData
		}
	}
	dp.laneSafe = dp.perWarp && untaintedGuards(p.Instrs)
	return dp
}

// decoded returns p's decoded form, which p carries from its first launch
// on (kasm.Program.Decoded).
func decoded(p *kasm.Program) *dprog {
	return p.Decoded(func(p *kasm.Program) any { return decodeProgram(p) }).(*dprog)
}
