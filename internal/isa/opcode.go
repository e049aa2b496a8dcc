// Package isa defines the SASS-like instruction set architecture shared by
// the functional SIMT emulator (internal/emu) and the RTL-level GPU model
// (internal/rtl).
//
// The ISA mirrors the subset of NVIDIA SASS that the DSN 2021 paper
// characterises at RTL level — floating point (FADD, FMUL, FFMA), integer
// (IADD, IMUL, IMAD), transcendental (FSIN, FEXP), memory (GLD, GST) and
// control (BRA, ISET) instructions — plus the support operations (moves,
// shifts, predicates, barriers) needed to express realistic kernels.
package isa

import "fmt"

// Opcode identifies a machine operation. The zero value is invalid so that
// an accidentally zeroed instruction word is detected as a decode error
// (mirroring an illegal-instruction trap in hardware).
type Opcode uint8

// Machine operations. The first block is the 12 instructions characterised
// by RTL fault injection in the paper (§III); the second block is support
// operations used by kernels but profiled under "Others" (Fig. 3).
const (
	OpInvalid Opcode = iota

	// Characterised floating-point operations (FP32 unit).
	OpFADD // d = a + b
	OpFMUL // d = a * b
	OpFFMA // d = a*b + c (fused, single rounding)

	// Characterised integer operations (INT unit).
	OpIADD // d = a + b
	OpIMUL // d = a * b (low 32 bits)
	OpIMAD // d = a*b + c (low 32 bits)

	// Characterised special-function operations (SFU).
	OpFSIN // d = sin(a), a in [0, pi/2] fast path
	OpFEXP // d = exp2(a) scaled: d = e^a via exp2(a*log2 e)

	// Characterised memory operations (load/store unit).
	OpGLD // d = global[a + imm]
	OpGST // global[a + imm] = b

	// Characterised control operations.
	OpBRA  // branch to Target if guard predicate holds
	OpISET // d = (a <cmp> b) ? 0xFFFFFFFF : 0

	// Support operations ("Others" in Fig. 3).
	OpMOV    // d = a
	OpMOV32I // d = imm
	OpSEL    // d = pred ? a : b
	OpS2R    // d = special register (tid, ctaid, ...)
	OpISETP  // p = (a <cmp> b)
	OpFSETP  // p = (a <cmp> b) on float32
	OpSHL    // d = a << (b & 31)
	OpSHR    // d = a >> (b & 31) (logical)
	OpAND    // d = a & b
	OpOR     // d = a | b
	OpXOR    // d = a ^ b
	OpIMNMX  // d = pred ? min(a,b) : max(a,b) (signed)
	OpFMNMX  // d = pred ? min(a,b) : max(a,b)
	OpFRCP   // d = 1/a (SFU approximation)
	OpFRSQRT // d = 1/sqrt(a) (SFU approximation)
	OpF2I    // d = int32(a) (truncate)
	OpI2F    // d = float32(a)
	OpSLD    // d = shared[a + imm]
	OpSST    // shared[a + imm] = b
	OpBAR    // block-wide barrier
	OpNOP    // no operation
	OpEXIT   // thread exit

	opCount // sentinel; keep last
)

// NumOpcodes is the number of defined opcodes, including OpInvalid.
const NumOpcodes = int(opCount)

// Category buckets opcodes the way Fig. 3 of the paper does.
type Category uint8

// Profile categories (Fig. 3).
const (
	CatOther   Category = iota // support operations
	CatFP32                    // FADD, FMUL, FFMA
	CatINT32                   // IADD, IMUL, IMAD
	CatSFU                     // FSIN, FEXP (and other MUFU ops)
	CatControl                 // GLD, GST, BRA, ISET (paper's "Control" group)
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatFP32:
		return "FP32"
	case CatINT32:
		return "INT32"
	case CatSFU:
		return "SFU"
	case CatControl:
		return "Control"
	default:
		return "Others"
	}
}

// opInfo is static metadata about one opcode.
type opInfo struct {
	name     string
	cat      Category
	unit     Unit // functional unit that executes the operation
	srcs     int  // number of register sources read (0..3)
	hasDst   bool
	setsPred bool
	isMem    bool
}

// Unit identifies the hardware module that executes an opcode. It is used
// both by the RTL model (to route operations) and by the syndrome database
// (to select the injection-site-specific fault model).
type Unit uint8

// Functional units of the modelled SM.
const (
	UnitNone Unit = iota
	UnitINT       // integer ALU/MAD lane
	UnitFP32      // single-precision FP lane
	UnitSFU       // shared special-function unit
	UnitLSU       // load/store unit
	UnitCTRL      // branch/barrier control
)

// String implements fmt.Stringer.
func (u Unit) String() string {
	switch u {
	case UnitINT:
		return "INT"
	case UnitFP32:
		return "FP32"
	case UnitSFU:
		return "SFU"
	case UnitLSU:
		return "LSU"
	case UnitCTRL:
		return "CTRL"
	default:
		return "NONE"
	}
}

var opTable = [opCount]opInfo{
	OpInvalid: {name: "INVALID"},

	OpFADD: {name: "FADD", cat: CatFP32, unit: UnitFP32, srcs: 2, hasDst: true},
	OpFMUL: {name: "FMUL", cat: CatFP32, unit: UnitFP32, srcs: 2, hasDst: true},
	OpFFMA: {name: "FFMA", cat: CatFP32, unit: UnitFP32, srcs: 3, hasDst: true},

	OpIADD: {name: "IADD", cat: CatINT32, unit: UnitINT, srcs: 2, hasDst: true},
	OpIMUL: {name: "IMUL", cat: CatINT32, unit: UnitINT, srcs: 2, hasDst: true},
	OpIMAD: {name: "IMAD", cat: CatINT32, unit: UnitINT, srcs: 3, hasDst: true},

	OpFSIN: {name: "FSIN", cat: CatSFU, unit: UnitSFU, srcs: 1, hasDst: true},
	OpFEXP: {name: "FEXP", cat: CatSFU, unit: UnitSFU, srcs: 1, hasDst: true},

	OpGLD: {name: "GLD", cat: CatControl, unit: UnitLSU, srcs: 1, hasDst: true, isMem: true},
	OpGST: {name: "GST", cat: CatControl, unit: UnitLSU, srcs: 2, isMem: true},

	OpBRA:  {name: "BRA", cat: CatControl, unit: UnitCTRL},
	OpISET: {name: "ISET", cat: CatControl, unit: UnitINT, srcs: 2, hasDst: true},

	OpMOV:    {name: "MOV", cat: CatOther, unit: UnitINT, srcs: 1, hasDst: true},
	OpMOV32I: {name: "MOV32I", cat: CatOther, unit: UnitINT, hasDst: true},
	OpSEL:    {name: "SEL", cat: CatOther, unit: UnitINT, srcs: 2, hasDst: true},
	OpS2R:    {name: "S2R", cat: CatOther, unit: UnitINT, hasDst: true},
	OpISETP:  {name: "ISETP", cat: CatOther, unit: UnitINT, srcs: 2, setsPred: true},
	OpFSETP:  {name: "FSETP", cat: CatOther, unit: UnitFP32, srcs: 2, setsPred: true},
	OpSHL:    {name: "SHL", cat: CatOther, unit: UnitINT, srcs: 2, hasDst: true},
	OpSHR:    {name: "SHR", cat: CatOther, unit: UnitINT, srcs: 2, hasDst: true},
	OpAND:    {name: "AND", cat: CatOther, unit: UnitINT, srcs: 2, hasDst: true},
	OpOR:     {name: "OR", cat: CatOther, unit: UnitINT, srcs: 2, hasDst: true},
	OpXOR:    {name: "XOR", cat: CatOther, unit: UnitINT, srcs: 2, hasDst: true},
	OpIMNMX:  {name: "IMNMX", cat: CatOther, unit: UnitINT, srcs: 2, hasDst: true},
	OpFMNMX:  {name: "FMNMX", cat: CatOther, unit: UnitFP32, srcs: 2, hasDst: true},
	OpFRCP:   {name: "FRCP", cat: CatSFU, unit: UnitSFU, srcs: 1, hasDst: true},
	OpFRSQRT: {name: "FRSQRT", cat: CatSFU, unit: UnitSFU, srcs: 1, hasDst: true},
	OpF2I:    {name: "F2I", cat: CatOther, unit: UnitFP32, srcs: 1, hasDst: true},
	OpI2F:    {name: "I2F", cat: CatOther, unit: UnitFP32, srcs: 1, hasDst: true},
	OpSLD:    {name: "SLD", cat: CatOther, unit: UnitLSU, srcs: 1, hasDst: true, isMem: true},
	OpSST:    {name: "SST", cat: CatOther, unit: UnitLSU, srcs: 2, isMem: true},
	OpBAR:    {name: "BAR", cat: CatOther, unit: UnitCTRL},
	OpNOP:    {name: "NOP", cat: CatOther, unit: UnitCTRL},
	OpEXIT:   {name: "EXIT", cat: CatOther, unit: UnitCTRL},
}

// Valid reports whether op is a defined opcode other than OpInvalid.
func (op Opcode) Valid() bool { return op > OpInvalid && op < opCount }

// String implements fmt.Stringer.
func (op Opcode) String() string {
	if int(op) < len(opTable) && opTable[op].name != "" {
		return opTable[op].name
	}
	return fmt.Sprintf("Opcode(%d)", uint8(op))
}

// Category returns the Fig. 3 profiling bucket for op.
func (op Opcode) Category() Category {
	if op.Valid() {
		return opTable[op].cat
	}
	return CatOther
}

// Unit returns the functional unit that executes op.
func (op Opcode) Unit() Unit {
	if op.Valid() {
		return opTable[op].unit
	}
	return UnitNone
}

// NumSrcs returns how many register source operands op reads.
func (op Opcode) NumSrcs() int {
	if op.Valid() {
		return opTable[op].srcs
	}
	return 0
}

// HasDst reports whether op writes a destination register.
func (op Opcode) HasDst() bool { return op.Valid() && opTable[op].hasDst }

// SetsPred reports whether op writes a predicate register.
func (op Opcode) SetsPred() bool { return op.Valid() && opTable[op].setsPred }

// IsMemory reports whether op accesses memory.
func (op Opcode) IsMemory() bool { return op.Valid() && opTable[op].isMem }

// IsFloat reports whether op produces a floating-point result, which decides
// how fault syndromes (relative errors) are applied to its output.
func (op Opcode) IsFloat() bool {
	switch op {
	case OpFADD, OpFMUL, OpFFMA, OpFSIN, OpFEXP, OpFRCP, OpFRSQRT, OpFMNMX, OpI2F:
		return true
	}
	return false
}

// Characterized reports whether op is one of the 12 SASS instructions whose
// fault syndrome the paper characterises at RTL level (§III).
func (op Opcode) Characterized() bool {
	switch op {
	case OpFADD, OpFMUL, OpFFMA, OpIADD, OpIMUL, OpIMAD,
		OpFSIN, OpFEXP, OpGLD, OpGST, OpBRA, OpISET:
		return true
	}
	return false
}

// CharacterizedOpcodes lists the 12 RTL-characterised instructions in the
// order the paper presents them.
func CharacterizedOpcodes() []Opcode {
	return []Opcode{
		OpFADD, OpFMUL, OpFFMA,
		OpIADD, OpIMUL, OpIMAD,
		OpFSIN, OpFEXP,
		OpGLD, OpGST, OpBRA, OpISET,
	}
}

// ParseCharacterized returns the characterised opcode spelled s (its
// String form).
func ParseCharacterized(s string) (Opcode, bool) {
	for _, op := range CharacterizedOpcodes() {
		if op.String() == s {
			return op, true
		}
	}
	return 0, false
}

// AllOpcodes lists every valid opcode.
func AllOpcodes() []Opcode {
	ops := make([]Opcode, 0, opCount-1)
	for op := OpInvalid + 1; op < opCount; op++ {
		ops = append(ops, op)
	}
	return ops
}
