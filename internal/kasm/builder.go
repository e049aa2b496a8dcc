// Package kasm is a small kernel assembler for the gpufi ISA.
//
// Micro-benchmarks, HPC applications and CNN layers are all written against
// this builder. It resolves labels, fills in SIMT reconvergence points for
// potentially divergent branches (the role the SSY instruction plays in
// pre-Volta SASS), and produces both the decoded instruction slice executed
// by the functional emulator and the encoded binary image fetched by the
// RTL model.
package kasm

import (
	"fmt"
	"sync/atomic"

	"gpufi/internal/isa"
)

// Program is a finalized kernel. It never changes after Finalize, so it can
// carry the emulator's decoded form of itself (Decoded), collected with it.
type Program struct {
	Name   string
	Instrs []isa.Instr
	Words  []isa.Word
	Labels map[string]int

	decoded atomic.Value // see Decoded
}

// Decoded returns what decode builds from p, calling decode on the first
// call only (racing first calls all return the value stored first).
func (p *Program) Decoded(decode func(*Program) any) any {
	if v := p.decoded.Load(); v != nil {
		return v
	}
	p.decoded.CompareAndSwap(nil, decode(p))
	return p.decoded.Load()
}

// Disasm returns the full disassembly listing of the program.
func (p *Program) Disasm() string {
	rev := make(map[int][]string)
	for name, pc := range p.Labels {
		rev[pc] = append(rev[pc], name)
	}
	out := ""
	for pc, in := range p.Instrs {
		for _, l := range rev[pc] {
			out += l + ":\n"
		}
		out += fmt.Sprintf("  %3d: %s\n", pc, in)
	}
	return out
}

type fixup struct {
	pc     int    // instruction to patch
	target string // label for Target field
	reconv string // label for Reconv field ("" = auto)
}

// Builder accumulates instructions and resolves control flow. Errors are
// sticky: the first error is reported by Finalize.
type Builder struct {
	name   string
	instrs []isa.Instr
	labels map[string]int
	fixups []fixup
	nauto  int
	err    error
}

// New returns an empty Builder for a kernel with the given name.
func New(name string) *Builder {
	return &Builder{name: name, labels: make(map[string]int)}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("kasm %q: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// PC returns the index the next emitted instruction will occupy.
func (b *Builder) PC() int { return len(b.instrs) }

// Emit appends a raw instruction. Most callers should use the typed
// helpers; Emit exists for fault-model experiments that need unusual
// encodings.
func (b *Builder) Emit(in isa.Instr) {
	if err := in.Validate(); err != nil {
		b.fail("at %d: %v", len(b.instrs), err)
	}
	b.instrs = append(b.instrs, in)
}

// Label binds name to the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.instrs)
}

func (b *Builder) autoLabel(prefix string) string {
	b.nauto++
	return fmt.Sprintf(".%s%d", prefix, b.nauto)
}

// --- Arithmetic -----------------------------------------------------------

// op3 emits a three-register-operand instruction d = op(a, s, c).
func (b *Builder) op3(op isa.Opcode, d, a, s, c isa.Reg) {
	b.Emit(isa.Instr{Op: op, Guard: isa.PredTrue, Dst: d, SrcA: a, SrcB: s, SrcC: c})
}

func (b *Builder) op2(op isa.Opcode, d, a, s isa.Reg) { b.op3(op, d, a, s, isa.RZ) }
func (b *Builder) op1(op isa.Opcode, d, a isa.Reg)    { b.op3(op, d, a, isa.RZ, isa.RZ) }

// FAdd emits d = a + s.
func (b *Builder) FAdd(d, a, s isa.Reg) { b.op2(isa.OpFADD, d, a, s) }

// FMul emits d = a * s.
func (b *Builder) FMul(d, a, s isa.Reg) { b.op2(isa.OpFMUL, d, a, s) }

// FFma emits d = a*s + c with a single rounding.
func (b *Builder) FFma(d, a, s, c isa.Reg) { b.op3(isa.OpFFMA, d, a, s, c) }

// IAdd emits d = a + s.
func (b *Builder) IAdd(d, a, s isa.Reg) { b.op2(isa.OpIADD, d, a, s) }

// IAddI emits d = a + imm.
func (b *Builder) IAddI(d, a isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpIADD, Guard: isa.PredTrue, Dst: d, SrcA: a, UseImmB: true, Imm: imm})
}

// IMul emits d = a * s (low 32 bits).
func (b *Builder) IMul(d, a, s isa.Reg) { b.op2(isa.OpIMUL, d, a, s) }

// IMulI emits d = a * imm.
func (b *Builder) IMulI(d, a isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpIMUL, Guard: isa.PredTrue, Dst: d, SrcA: a, UseImmB: true, Imm: imm})
}

// IMad emits d = a*s + c.
func (b *Builder) IMad(d, a, s, c isa.Reg) { b.op3(isa.OpIMAD, d, a, s, c) }

// IMadI emits d = a*imm + c.
func (b *Builder) IMadI(d, a isa.Reg, imm int32, c isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpIMAD, Guard: isa.PredTrue, Dst: d, SrcA: a, SrcC: c, UseImmB: true, Imm: imm})
}

// FSin emits d = sin(a).
func (b *Builder) FSin(d, a isa.Reg) { b.op1(isa.OpFSIN, d, a) }

// FExp emits d = e^a.
func (b *Builder) FExp(d, a isa.Reg) { b.op1(isa.OpFEXP, d, a) }

// FRcp emits d = 1/a.
func (b *Builder) FRcp(d, a isa.Reg) { b.op1(isa.OpFRCP, d, a) }

// Shl emits d = a << imm.
func (b *Builder) Shl(d, a isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpSHL, Guard: isa.PredTrue, Dst: d, SrcA: a, UseImmB: true, Imm: imm})
}

// Shr emits d = a >> imm (logical).
func (b *Builder) Shr(d, a isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpSHR, Guard: isa.PredTrue, Dst: d, SrcA: a, UseImmB: true, Imm: imm})
}

// And emits d = a & s.
func (b *Builder) And(d, a, s isa.Reg) { b.op2(isa.OpAND, d, a, s) }

// AndI emits d = a & imm.
func (b *Builder) AndI(d, a isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpAND, Guard: isa.PredTrue, Dst: d, SrcA: a, UseImmB: true, Imm: imm})
}

// Or emits d = a | s.
func (b *Builder) Or(d, a, s isa.Reg) { b.op2(isa.OpOR, d, a, s) }

// Xor emits d = a ^ s.
func (b *Builder) Xor(d, a, s isa.Reg) { b.op2(isa.OpXOR, d, a, s) }

// XorI emits d = a ^ imm.
func (b *Builder) XorI(d, a isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpXOR, Guard: isa.PredTrue, Dst: d, SrcA: a, UseImmB: true, Imm: imm})
}

// IMin emits d = min(a, s) (signed).
func (b *Builder) IMin(d, a, s isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpIMNMX, Guard: isa.PredTrue, Dst: d, SrcA: a, SrcB: s, PDst: isa.PredTrue})
}

// IMax emits d = max(a, s) (signed).
func (b *Builder) IMax(d, a, s isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpIMNMX, Guard: isa.PredTrue, Dst: d, SrcA: a, SrcB: s, PDst: isa.NotP(isa.PT)})
}

// FMin emits d = min(a, s).
func (b *Builder) FMin(d, a, s isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpFMNMX, Guard: isa.PredTrue, Dst: d, SrcA: a, SrcB: s, PDst: isa.PredTrue})
}

// FMax emits d = max(a, s).
func (b *Builder) FMax(d, a, s isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpFMNMX, Guard: isa.PredTrue, Dst: d, SrcA: a, SrcB: s, PDst: isa.NotP(isa.PT)})
}

// F2I emits d = int32(trunc(a)).
func (b *Builder) F2I(d, a isa.Reg) { b.op1(isa.OpF2I, d, a) }

// I2F emits d = float32(a).
func (b *Builder) I2F(d, a isa.Reg) { b.op1(isa.OpI2F, d, a) }

// --- Moves and predicates --------------------------------------------------

// Mov emits d = a.
func (b *Builder) Mov(d, a isa.Reg) { b.op1(isa.OpMOV, d, a) }

// MovI emits d = imm (integer payload).
func (b *Builder) MovI(d isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpMOV32I, Guard: isa.PredTrue, Dst: d, Imm: imm})
}

// MovF emits d = f (float32 payload).
func (b *Builder) MovF(d isa.Reg, f float32) {
	b.Emit(isa.Instr{Op: isa.OpMOV32I, Guard: isa.PredTrue, Dst: d}.WithFImm(f))
}

// S2R emits d = special register sr.
func (b *Builder) S2R(d isa.Reg, sr isa.SpecialReg) {
	b.Emit(isa.Instr{Op: isa.OpS2R, Guard: isa.PredTrue, Dst: d, Imm: int32(sr)})
}

// Sel emits d = p ? a : s.
func (b *Builder) Sel(d, a, s isa.Reg, p isa.Pred) {
	b.Emit(isa.Instr{Op: isa.OpSEL, Guard: isa.PredTrue, Dst: d, SrcA: a, SrcB: s, PDst: p})
}

// ISet emits d = (a cmp s) ? ~0 : 0.
func (b *Builder) ISet(d isa.Reg, cmp isa.Cmp, a, s isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpISET, Guard: isa.PredTrue, Dst: d, SrcA: a, SrcB: s, Cmp: cmp})
}

// ISetP emits p = (a cmp s) on signed integers.
func (b *Builder) ISetP(p isa.Pred, cmp isa.Cmp, a, s isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpISETP, Guard: isa.PredTrue, PDst: p, SrcA: a, SrcB: s, Cmp: cmp})
}

// ISetPI emits p = (a cmp imm) on signed integers.
func (b *Builder) ISetPI(p isa.Pred, cmp isa.Cmp, a isa.Reg, imm int32) {
	b.Emit(isa.Instr{Op: isa.OpISETP, Guard: isa.PredTrue, PDst: p, SrcA: a, Cmp: cmp, UseImmB: true, Imm: imm})
}

// FSetP emits p = (a cmp s) on float32.
func (b *Builder) FSetP(p isa.Pred, cmp isa.Cmp, a, s isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpFSETP, Guard: isa.PredTrue, PDst: p, SrcA: a, SrcB: s, Cmp: cmp})
}

// --- Memory -----------------------------------------------------------------

// Gld emits d = global[addr + off] (word addressed).
func (b *Builder) Gld(d, addr isa.Reg, off int32) {
	b.Emit(isa.Instr{Op: isa.OpGLD, Guard: isa.PredTrue, Dst: d, SrcA: addr, Imm: off})
}

// Gst emits global[addr + off] = v.
func (b *Builder) Gst(addr isa.Reg, off int32, v isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpGST, Guard: isa.PredTrue, SrcA: addr, SrcC: v, Imm: off})
}

// GldIf and GstIf are guarded variants used to mask out-of-range threads.
func (b *Builder) GldIf(p isa.Pred, d, addr isa.Reg, off int32) {
	b.Emit(isa.Instr{Op: isa.OpGLD, Guard: p, Dst: d, SrcA: addr, Imm: off})
}

// GstIf emits @p global[addr + off] = v.
func (b *Builder) GstIf(p isa.Pred, addr isa.Reg, off int32, v isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpGST, Guard: p, SrcA: addr, SrcC: v, Imm: off})
}

// Sld emits d = shared[addr + off].
func (b *Builder) Sld(d, addr isa.Reg, off int32) {
	b.Emit(isa.Instr{Op: isa.OpSLD, Guard: isa.PredTrue, Dst: d, SrcA: addr, Imm: off})
}

// Sst emits shared[addr + off] = v.
func (b *Builder) Sst(addr isa.Reg, off int32, v isa.Reg) {
	b.Emit(isa.Instr{Op: isa.OpSST, Guard: isa.PredTrue, SrcA: addr, SrcC: v, Imm: off})
}

// --- Control flow ------------------------------------------------------------

// Bar emits a block-wide barrier.
func (b *Builder) Bar() { b.Emit(isa.Instr{Op: isa.OpBAR, Guard: isa.PredTrue}) }

// Nop emits a no-op.
func (b *Builder) Nop() { b.Emit(isa.Instr{Op: isa.OpNOP, Guard: isa.PredTrue}) }

// Exit emits a thread-exit.
func (b *Builder) Exit() { b.Emit(isa.Instr{Op: isa.OpEXIT, Guard: isa.PredTrue}) }

// Bra emits an unconditional branch to label.
func (b *Builder) Bra(label string) {
	b.fixups = append(b.fixups, fixup{pc: len(b.instrs), target: label})
	b.Emit(isa.Instr{Op: isa.OpBRA, Guard: isa.PredTrue})
}

// BraIf emits a potentially divergent branch taken by threads where p
// holds. The reconvergence point defaults to the branch target for forward
// branches (if-then shape) and to the fall-through instruction for backward
// branches (loop shape); use BraIfReconv for if-else shapes.
func (b *Builder) BraIf(p isa.Pred, label string) {
	b.fixups = append(b.fixups, fixup{pc: len(b.instrs), target: label})
	b.Emit(isa.Instr{Op: isa.OpBRA, Guard: p})
}

// BraIfReconv emits a divergent branch with an explicit reconvergence label.
func (b *Builder) BraIfReconv(p isa.Pred, label, reconv string) {
	b.fixups = append(b.fixups, fixup{pc: len(b.instrs), target: label, reconv: reconv})
	b.Emit(isa.Instr{Op: isa.OpBRA, Guard: p})
}

// If emits an if-then region: body runs for threads where p holds.
func (b *Builder) If(p isa.Pred, body func()) {
	skip := b.autoLabel("endif")
	b.BraIf(negate(p), skip)
	body()
	b.Label(skip)
}

// IfElse emits an if-then-else region with correct reconvergence at the end.
func (b *Builder) IfElse(p isa.Pred, thenBody, elseBody func()) {
	elseL := b.autoLabel("else")
	endL := b.autoLabel("endif")
	b.BraIfReconv(negate(p), elseL, endL)
	thenBody()
	b.Bra(endL)
	b.Label(elseL)
	elseBody()
	b.Label(endL)
}

// Loop emits a do-while loop: body runs at least once and repeats while the
// predicate produced by cond holds. cond must emit the code that sets the
// predicate it returns.
func (b *Builder) Loop(body func(), cond func() isa.Pred) {
	top := b.autoLabel("loop")
	b.Label(top)
	body()
	p := cond()
	b.BraIf(p, top)
}

// negate flips the negation bit of a predicate.
func negate(p isa.Pred) isa.Pred {
	if p.Neg() {
		return isa.P(p.Index())
	}
	return isa.NotP(p.Index())
}

// Finalize resolves labels, appends a trailing EXIT when the program does
// not already end with one, validates every instruction and encodes the
// binary image.
func (b *Builder) Finalize() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if n := len(b.instrs); n == 0 || b.instrs[n-1].Op != isa.OpEXIT {
		b.Exit()
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.target]
		if !ok {
			return nil, fmt.Errorf("kasm %q: undefined label %q", b.name, f.target)
		}
		if target > 0xFFFF || f.pc > 0xFFFF {
			return nil, fmt.Errorf("kasm %q: program too large for 16-bit branch targets", b.name)
		}
		in := &b.instrs[f.pc]
		in.Target = uint16(target)
		switch {
		case f.reconv != "":
			r, ok := b.labels[f.reconv]
			if !ok {
				return nil, fmt.Errorf("kasm %q: undefined reconvergence label %q", b.name, f.reconv)
			}
			in.Reconv = uint16(r)
		case in.Guard == isa.PredTrue:
			in.Reconv = 0 // uniform branch, never diverges
		case target > f.pc:
			in.Reconv = uint16(target) // forward if-then
		default:
			in.Reconv = uint16(f.pc + 1) // backward loop: reconverge at exit
		}
	}
	for pc, in := range b.instrs {
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("kasm %q at %d: %w", b.name, pc, err)
		}
		if in.Op == isa.OpBRA && int(in.Target) >= len(b.instrs) {
			return nil, fmt.Errorf("kasm %q at %d: branch target %d out of range", b.name, pc, in.Target)
		}
	}
	labels := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	instrs := make([]isa.Instr, len(b.instrs))
	copy(instrs, b.instrs)
	return &Program{
		Name:   b.name,
		Instrs: instrs,
		Words:  isa.EncodeProgram(instrs),
		Labels: labels,
	}, nil
}

// MustFinalize is Finalize for statically known-good kernels; it panics on
// error and is intended for package-level kernel construction in tests and
// workload definitions.
func MustFinalize(b *Builder) *Program {
	p, err := b.Finalize()
	if err != nil {
		panic(err)
	}
	return p
}
